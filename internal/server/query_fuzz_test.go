package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/server/api"
)

// gateBody is an empty session body that records whether the handler read
// it.
type gateBody struct{ read bool }

func (b *gateBody) Read([]byte) (int, error) { b.read = true; return 0, io.EOF }
func (b *gateBody) Close() error             { return nil }

// FuzzSessionQuery fuzzes the served session gate: for any query, POST
// /v1/sessions is refused exactly when api.ParseQuery refuses the query,
// with a 400 carrying ParseQuery's error, and without reading a body byte,
// which the handler reads only after admission. A retired parameter
// (layout, threshold, unified) or an unknown one therefore costs the server
// no replay slot. A query ParseQuery accepts gets past the gate: the
// handler admits the session and reads its body. The codec's own
// properties (determinism, round trip, spec shape) are api's
// FuzzSessionQuery.
func FuzzSessionQuery(f *testing.F) {
	for _, seed := range []string{
		"layout=45-10-45",
		"threshold=1",
		"unified=1",
		"bogus=1&tiers=100",
		"tiers=garbage",
		"tiers=NaN-50-50@1",
		"capfrac=NaN",
		"pressure=2",
		"policy=nope",
		"session=" + strings.Repeat("x", api.MaxTenantLen+1),
		"capacity=0",
		"events=x",
		"",
		"capacity=4096&events=1",
		"tiers=100&attrib=1&policy=auto&selepoch=5&capfrac=0.25",
	} {
		f.Add(seed)
	}
	s, err := New(Config{Logf: func(string, ...any) {}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		u := &url.URL{Path: api.SessionsPath, RawQuery: raw}
		_, _, qerr := api.ParseQuery(u.Query())
		body := &gateBody{}
		rec := httptest.NewRecorder()
		s.handleSession(rec, &http.Request{Method: http.MethodPost, URL: u, Header: http.Header{}, Body: body})
		if qerr == nil {
			if !body.read {
				t.Fatalf("%q: ParseQuery accepted the query, but the session never read its body (status %d)", raw, rec.Code)
			}
			return
		}
		if body.read {
			t.Fatalf("%q: refused (%v), but the body was read", raw, qerr)
		}
		var e api.Error
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error != qerr.Error() {
			t.Fatalf("%q: status %d, body %q; want 400 with error %q", raw, rec.Code, rec.Body.Bytes(), qerr)
		}
	})
}
