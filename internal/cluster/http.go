package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/persist"
)

// Peer endpoint paths on a gencached node. The server side lives in
// internal/server (peer.go); this file is the client side.
const (
	PeerLookupPath    = "/v1/peer/lookup"
	PeerReplicatePath = "/v1/peer/replicate"
	PeerSnapshotPath  = "/v1/peer/snapshot"
)

// maxPeerBody bounds how much of a peer response the transport will read:
// replies are small fixed messages except snapshots, which are bounded by
// the peer's shared-tier capacity, not by the requester.
const maxPeerBody = 64 << 20

// HTTPTransport speaks the trace-exchange protocol to one peer over HTTP.
type HTTPTransport struct {
	BaseURL string
	Client  *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTPTransport) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ExchangeContentType)
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s%s: HTTP %d", t.BaseURL, path, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
}

// Lookup implements Transport.
func (t *HTTPTransport) Lookup(ctx context.Context, q LookupRequest) (LookupResponse, error) {
	body, err := t.post(ctx, PeerLookupPath, EncodeLookupRequest(q))
	if err != nil {
		return LookupResponse{}, err
	}
	return DecodeLookupResponse(body)
}

// Replicate implements Transport.
func (t *HTTPTransport) Replicate(ctx context.Context, q ReplicateRequest) (ReplicateResponse, error) {
	body, err := t.post(ctx, PeerReplicatePath, EncodeReplicateRequest(q))
	if err != nil {
		return ReplicateResponse{}, err
	}
	return DecodeReplicateResponse(body)
}

// FormatShards renders a shard list for the snapshot query string.
func FormatShards(shards []int) string {
	var b strings.Builder
	for i, s := range shards {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
}

// ParseShards parses a snapshot query's shard list, bounds-checked against
// the ring size.
func ParseShards(s string, ringShards int) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("cluster: empty shard list")
	}
	parts := strings.Split(s, ",")
	if len(parts) > ringShards {
		return nil, fmt.Errorf("cluster: shard list longer than the ring (%d > %d)", len(parts), ringShards)
	}
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v >= ringShards {
			return nil, fmt.Errorf("cluster: bad shard %q (ring has %d)", p, ringShards)
		}
		out = append(out, v)
	}
	return out, nil
}

// Snapshot implements Transport: GET the peer's publications for the given
// shards as a self-describing persist image.
func (t *HTTPTransport) Snapshot(ctx context.Context, shards []int) (persist.Image, error) {
	url := t.BaseURL + PeerSnapshotPath + "?shards=" + FormatShards(shards)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return persist.Image{}, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return persist.Image{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return persist.Image{}, fmt.Errorf("cluster: peer snapshot: HTTP %d", resp.StatusCode)
	}
	return persist.Load(io.LimitReader(resp.Body, maxPeerBody))
}
