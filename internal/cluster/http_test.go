package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// captureRT answers every request with an encoded reply and keeps what it
// was sent, body and GetBody's replay included.
type captureRT struct {
	reqs          []*http.Request
	bodies, again [][]byte
}

func (c *captureRT) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	rc, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	again, err := io.ReadAll(rc)
	if err != nil {
		return nil, err
	}
	c.reqs = append(c.reqs, req)
	c.bodies = append(c.bodies, body)
	c.again = append(c.again, again)
	rec := httptest.NewRecorder()
	switch req.URL.Path {
	case PeerLookupPath:
		rec.Write(EncodeLookupResponse(LookupResponse{Found: true, TraceID: 7, Size: 64}))
	case PeerReplicatePath:
		rec.Write(EncodeReplicateResponse(ReplicateResponse{Accepted: 1}))
	}
	return rec.Result(), nil
}

// ctxKey marks the test's context, so a request can be checked to carry it.
type ctxKey struct{}

// TestHTTPTransportRequests checks that the requests a transport sends
// from its once-built templates are the ones NewRequestWithContext builds
// from BaseURL+path: method, URL, host, headers, length and body, with
// GetBody replaying the body, for repeated lookups and a replication.
func TestHTTPTransportRequests(t *testing.T) {
	rt := &captureRT{}
	tr := &HTTPTransport{BaseURL: "http://node-1:", Client: &http.Client{Transport: rt}}
	ctx := context.WithValue(context.Background(), ctxKey{}, 1)
	lookups := []LookupRequest{
		{Key: Key{Bench: "gzip", Module: 1, Head: 0x40}, Size: 64, Shard: 3},
		{Key: Key{Bench: "word", Module: 2, Head: 0x80}, Size: 128, Shard: 5},
	}
	for _, q := range lookups {
		got, err := tr.Lookup(ctx, q)
		if err != nil || got != (LookupResponse{Found: true, TraceID: 7, Size: 64}) {
			t.Fatalf("Lookup = %+v, %v", got, err)
		}
	}
	rep := ReplicateRequest{Origin: "node-0", Records: []Replica{{Key: lookups[0].Key, Size: 64, Shard: 3}}}
	if got, err := tr.Replicate(ctx, rep); err != nil || got.Accepted != 1 {
		t.Fatalf("Replicate = %+v, %v", got, err)
	}

	sent := []struct {
		path string
		body []byte
	}{
		{PeerLookupPath, EncodeLookupRequest(lookups[0])},
		{PeerLookupPath, EncodeLookupRequest(lookups[1])},
		{PeerReplicatePath, EncodeReplicateRequest(rep)},
	}
	if len(rt.reqs) != len(sent) {
		t.Fatalf("%d requests sent, want %d", len(rt.reqs), len(sent))
	}
	for i, w := range sent {
		want, err := http.NewRequestWithContext(ctx, http.MethodPost, tr.BaseURL+w.path, bytes.NewReader(w.body))
		if err != nil {
			t.Fatal(err)
		}
		want.Header.Set("Content-Type", ExchangeContentType)
		got := rt.reqs[i]
		if got.Method != want.Method || got.URL.String() != want.URL.String() || got.Host != want.Host ||
			got.Proto != want.Proto || got.ContentLength != want.ContentLength ||
			!reflect.DeepEqual(got.Header, want.Header) || got.Context() != ctx {
			t.Errorf("request %d: %s %s host %q %s len %d %v, want %s %s host %q %s len %d %v", i,
				got.Method, got.URL, got.Host, got.Proto, got.ContentLength, got.Header,
				want.Method, want.URL, want.Host, want.Proto, want.ContentLength, want.Header)
		}
		if !bytes.Equal(rt.bodies[i], w.body) || !bytes.Equal(rt.again[i], w.body) {
			t.Errorf("request %d: body %x, GetBody %x, want %x", i, rt.bodies[i], rt.again[i], w.body)
		}
	}
	if rt.reqs[0].URL == rt.reqs[1].URL {
		t.Error("two lookups share one *url.URL")
	}
}

// TestHTTPTransportBadURL checks that a BaseURL that does not parse fails
// every request with the parse error, not only the first.
func TestHTTPTransportBadURL(t *testing.T) {
	tr := &HTTPTransport{BaseURL: "http://bad host", Client: &http.Client{Transport: &captureRT{}}}
	_, want := http.NewRequest(http.MethodPost, tr.BaseURL+PeerLookupPath, nil)
	if want == nil {
		t.Fatal("the test's BaseURL parses")
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Lookup(context.Background(), LookupRequest{}); err == nil || err.Error() != want.Error() {
			t.Errorf("lookup %d: err %v, want %v", i, err, want)
		}
	}
}
