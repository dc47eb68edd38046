// Package client is the Go client of the gencached service: it opens
// sessions (streaming a tracelog body up, decoding the result), polls
// health, and synthesizes workload logs for load generation. The gencached
// loadtest subcommand and the server's integration tests are its consumers.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/server/api"
	"repro/internal/simclock"
)

// ErrOverloaded is returned by Session when the server refused admission
// with 429; callers back off and retry.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrDraining is returned by Session when the server is shutting down.
var ErrDraining = errors.New("client: server draining")

// Client talks to one gencached server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient is the transport; nil uses a client with no timeout
	// (sessions stream arbitrarily long bodies).
	HTTPClient *http.Client
	// Clock is the client's time plane for deadlines and backoff pacing;
	// nil means the wall clock. Load drivers inject their own so pacing is
	// part of the same (possibly virtual) timeline as everything else.
	Clock simclock.Clock
}

// New returns a client for the given base URL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) clock() simclock.Clock { return simclock.Default(c.Clock) }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{}
}

// SessionOptions configure one session; zero values take the server's
// defaults (capfrac 0.5, layout 45-10-45, threshold 1).
type SessionOptions struct {
	CapacityBytes uint64  // absolute capacity; selects the streaming path
	CapFrac       float64 // fraction of the log's unbounded peak
	Layout        string
	Threshold     uint64 // 0 means unset (server default 1)
	HasThreshold  bool   // set to send Threshold even when it is 0
	Tiers         string
	Unified       bool
	// Policy applies a local-policy spec to tiers that don't name one.
	Policy string
	// Adaptive attaches the adaptive split controller to the session.
	Adaptive bool
	// AdaptEpoch overrides the adaptive controller's decision epoch.
	AdaptEpoch uint64
	// Pressure is the load pressure in [0, 1] the session starts under;
	// formatted round-trippably so the server parses the exact value back.
	Pressure float64
	// Attrib attaches the trace-lifecycle attribution ledger: the result's
	// Causes field carries per-cause miss counts and the session folds into
	// the server's /v1/attrib aggregate.
	Attrib bool
	// Tenant is the opaque session label (?session=, ≤64 bytes): with Attrib,
	// the session also folds into the tenant's /v1/attrib?session= aggregate.
	Tenant string
	// BinaryStats requests the compact binary result framing
	// (api.StatsContentType) instead of JSON. The decoded result is
	// identical; the response is smaller and cheaper to parse.
	BinaryStats bool
}

func (o SessionOptions) query() url.Values {
	q := url.Values{}
	if o.CapacityBytes > 0 {
		q.Set(api.ParamCapacity, strconv.FormatUint(o.CapacityBytes, 10))
	}
	if o.CapFrac > 0 {
		q.Set(api.ParamCapFrac, strconv.FormatFloat(o.CapFrac, 'g', -1, 64))
	}
	if o.Layout != "" {
		q.Set(api.ParamLayout, o.Layout)
	}
	if o.Threshold > 0 || o.HasThreshold {
		q.Set(api.ParamThreshold, strconv.FormatUint(o.Threshold, 10))
	}
	if o.Tiers != "" {
		q.Set(api.ParamTiers, o.Tiers)
	}
	if o.Unified {
		q.Set(api.ParamUnified, "1")
	}
	if o.Policy != "" {
		q.Set(api.ParamPolicy, o.Policy)
	}
	if o.Adaptive {
		q.Set(api.ParamAdaptive, "1")
	}
	if o.AdaptEpoch > 0 {
		q.Set(api.ParamAdaptEpoch, strconv.FormatUint(o.AdaptEpoch, 10))
	}
	if o.Pressure > 0 {
		q.Set(api.ParamPressure, strconv.FormatFloat(o.Pressure, 'g', -1, 64))
	}
	if o.Attrib {
		q.Set(api.ParamAttrib, "1")
	}
	if o.Tenant != "" {
		q.Set(api.ParamSession, o.Tenant)
	}
	return q
}

// Session streams body (a tracelog log, either framing) to the server and
// returns the session's result.
func (c *Client) Session(ctx context.Context, opts SessionOptions, body io.Reader) (api.SessionResult, error) {
	var out api.SessionResult
	u := c.BaseURL + api.SessionsPath
	if q := opts.query().Encode(); q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if opts.BinaryStats {
		req.Header.Set("Accept", api.StatsContentType)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if resp.Header.Get("Content-Type") == api.StatsContentType {
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				return out, fmt.Errorf("client: reading result: %w", err)
			}
			if err := out.UnmarshalBinary(data); err != nil {
				return out, fmt.Errorf("client: decoding result: %w", err)
			}
			return out, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return out, fmt.Errorf("client: decoding result: %w", err)
		}
		return out, nil
	case http.StatusTooManyRequests:
		return out, ErrOverloaded
	case http.StatusServiceUnavailable:
		return out, ErrDraining
	default:
		return out, fmt.Errorf("client: %s: %s", resp.Status, readError(resp.Body))
	}
}

// readError extracts the server's JSON error message, falling back to the
// raw body.
func readError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	var e api.Error
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// Health polls /healthz. It decodes the body regardless of status: a
// draining server answers 503 with a valid Health document.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var h api.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("client: decoding health: %w", err)
	}
	return h, nil
}

// WaitHealthy polls /healthz until the server answers or the deadline
// passes — the loadtest's startup barrier. Both the deadline and the retry
// pacing run on the client's clock.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	clk := c.clock()
	start := clk.Now()
	for {
		if _, err := c.Health(ctx); err == nil {
			return nil
		} else if clk.Since(start) > timeout {
			return fmt.Errorf("client: server not healthy after %s: %w", timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(50 * time.Millisecond):
		}
	}
}

// AttribReport fetches the server-wide miss-cause report. query is the raw
// query string ("cause=capacity&top=5"), empty for the unfiltered report.
func (c *Client) AttribReport(ctx context.Context, query string) (api.AttribReport, error) {
	var rep api.AttribReport
	u := c.BaseURL + api.AttribPath
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return rep, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("client: %s: %s", resp.Status, readError(resp.Body))
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("client: decoding attrib report: %w", err)
	}
	return rep, nil
}

// Metrics fetches the raw /metrics text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}
