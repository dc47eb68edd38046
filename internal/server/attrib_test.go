// Integration tests for the session attribution plane: attrib=1 sessions
// carry conserved per-cause miss counts, fold into GET /v1/attrib and the
// miss-cause metrics, and stay bit-identical to their offline verification
// replay.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// regenCauses sums the cause counts that must conserve against the
// regeneration total (everything but cold, which counts first compiles).
func regenCauses(c api.CauseCounts) uint64 {
	return c.Capacity + c.PrematureDemotion + c.NeverPromoted + c.UnmapForced + c.AdoptionMiss
}

// TestAttribSessionConserved: an attribution session's causes sum exactly to
// its regenerations, cold matches cold compiles, and the served result still
// equals the offline verification replay.
func TestAttribSessionConserved(t *testing.T) {
	data := syntheticLog(t, "gzip")
	_, c := newTestServer(t, server.Config{})
	got, err := c.Session(context.Background(), client.SessionOptions{SessionConfig: api.SessionConfig{Attrib: true}}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Regenerations == 0 {
		t.Fatal("gzip session produced no regenerations; nothing to attribute")
	}
	if sum := regenCauses(got.Causes); sum != got.Regenerations {
		t.Errorf("conservation violated: causes sum to %d, session regenerated %d", sum, got.Regenerations)
	}
	if got.Causes.Cold != got.ColdCreates {
		t.Errorf("cold causes %d != cold creates %d", got.Causes.Cold, got.ColdCreates)
	}

	offline, err := server.OfflineReplay(server.SessionConfig{Attrib: true}, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if !server.ResultsEquivalent(got, offline) {
		t.Errorf("attrib session diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, got)
	}
}

// TestAttribSessionWithoutFlagIsZero: a plain session reports zero causes —
// the ledger is strictly opt-in.
func TestAttribSessionWithoutFlagIsZero(t *testing.T) {
	data := syntheticLog(t, "word")
	_, c := newTestServer(t, server.Config{})
	got, err := c.Session(context.Background(), client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Causes != (api.CauseCounts{}) {
		t.Errorf("non-attrib session reported causes: %+v", got.Causes)
	}
}

// TestAttribEndpoint: /v1/attrib aggregates served sessions, conserves, and
// honors its filters; malformed queries are rejected with 400.
func TestAttribEndpoint(t *testing.T) {
	data := syntheticLog(t, "gzip")
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	got, err := c.Session(ctx, client.SessionOptions{SessionConfig: api.SessionConfig{Attrib: true}}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	rep, err := c.AttribReport(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Conserved {
		t.Error("aggregate reports conservation violated")
	}
	if rep.Regenerations != got.Regenerations {
		t.Errorf("aggregate regenerations %d != session's %d", rep.Regenerations, got.Regenerations)
	}
	if rep.ColdCompiles != got.ColdCreates {
		t.Errorf("aggregate cold compiles %d != session cold creates %d", rep.ColdCompiles, got.ColdCreates)
	}
	var sum uint64
	for name, n := range rep.Causes {
		if name != "cold" {
			sum += n
		}
	}
	if sum != rep.Regenerations {
		t.Errorf("causes map sums to %d, want %d", sum, rep.Regenerations)
	}
	if len(rep.Modules) == 0 {
		t.Fatal("report has no module rows")
	}
	if rep.TopCause == "" {
		t.Error("report names no top cause despite regenerations")
	}

	top1, err := c.AttribReport(ctx, "top=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(top1.Modules) != 1 {
		t.Errorf("top=1 returned %d module rows", len(top1.Modules))
	}
	if top1.Modules[0] != rep.Modules[0] {
		t.Errorf("top=1 row %+v differs from unfiltered leader %+v", top1.Modules[0], rep.Modules[0])
	}

	if byCause, err := c.AttribReport(ctx, "cause=capacity"); err != nil {
		t.Fatal(err)
	} else {
		for _, m := range byCause.Modules {
			if m.Causes.Capacity == 0 {
				t.Errorf("cause=capacity kept module %d with zero capacity misses", m.Module)
			}
		}
	}

	for _, bad := range []string{"module=70000", "cause=nope", "cause=none", "top=-1", "top=abc"} {
		if _, err := c.AttribReport(ctx, bad); err == nil {
			t.Errorf("query %q accepted, want 400", bad)
		} else if !strings.Contains(err.Error(), "400") {
			t.Errorf("query %q failed with %v, want 400", bad, err)
		}
	}
}

// TestAttribMetrics: the miss-cause counter family is exposed for every
// cause and agrees with the session's own counts.
func TestAttribMetrics(t *testing.T) {
	data := syntheticLog(t, "gzip")
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	got, err := c.Session(ctx, client.SessionOptions{SessionConfig: api.SessionConfig{Attrib: true}}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, cause := range []string{"cold", "capacity", "premature-demotion", "never-promoted", "unmap-forced", "adoption-miss"} {
		if !strings.Contains(text, `gencached_miss_cause_total{cause="`+cause+`"}`) {
			t.Errorf("metrics missing cause series %q", cause)
		}
	}
	// Spot-check one value against the session result.
	want := `gencached_miss_cause_total{cause="capacity"} `
	var line string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, want) {
			line = l
		}
	}
	if line == "" {
		t.Fatal("no capacity series line")
	}
	if wantLine := want + strconv.FormatUint(got.Causes.Capacity, 10); line != wantLine {
		t.Errorf("capacity series %q, want %q", line, wantLine)
	}
}

// TestAdoptionMissReclassification: a shared tier too small to retain what
// sessions publish forces regenerations of identities the tier once held —
// the ledger upgrades those to adoption-miss, and conservation still holds.
func TestAdoptionMissReclassification(t *testing.T) {
	data := syntheticLog(t, "word")
	// A 512-byte shared tier: publishes succeed, then evict each other, so a
	// later regeneration of a published identity finds the tier empty-handed.
	_, c := newTestServer(t, server.Config{SharedCapacity: 512})
	got, err := c.Session(context.Background(), client.SessionOptions{SessionConfig: api.SessionConfig{Attrib: true}}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shared.Published == 0 {
		t.Fatal("session published nothing; cannot starve the shared tier")
	}
	if got.Causes.AdoptionMiss == 0 {
		t.Error("starved shared tier produced no adoption-miss reclassifications")
	}
	if sum := regenCauses(got.Causes); sum != got.Regenerations {
		t.Errorf("reclassification broke conservation: causes sum to %d, regenerations %d", sum, got.Regenerations)
	}
}

// TestAttribBinaryStatsCarriesCauses: the binary result framing round-trips
// the cause counts — a binary-stats attrib session decodes identically to the
// JSON session of the same log on a fresh server.
func TestAttribBinaryStatsCarriesCauses(t *testing.T) {
	data := syntheticLog(t, "gzip")
	ctx := context.Background()

	_, cj := newTestServer(t, server.Config{})
	viaJSON, err := cj.Session(ctx, client.SessionOptions{SessionConfig: api.SessionConfig{Attrib: true}}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, cb := newTestServer(t, server.Config{})
	viaBinary, err := cb.Session(ctx, client.SessionOptions{SessionConfig: api.SessionConfig{Attrib: true}, BinaryStats: true}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	viaJSON.Session, viaBinary.Session = 0, 0
	if viaJSON != viaBinary {
		t.Errorf("binary framing diverges from JSON:\n  json:   %+v\n  binary: %+v", viaJSON, viaBinary)
	}
	if viaBinary.Causes == (api.CauseCounts{}) {
		t.Error("binary result lost the cause counts")
	}
}

// TestAttribEventsStream: an attrib=1&events=1 session streams one
// "regenerate" NDJSON event per classified miss, reason named, and the
// regenerate count equals the result's conserved regeneration total.
func TestAttribEventsStream(t *testing.T) {
	data := syntheticLog(t, "gzip")
	_, c := newTestServer(t, server.Config{})

	u := c.BaseURL + api.SessionsPath + "?" + api.ParamEvents + "=1&" + api.ParamAttrib + "=1"
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}

	var (
		regens uint64
		final  *api.SessionResult
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line api.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Result != nil:
			r := *line.Result
			final = &r
		case line.Event != nil && line.Event.Kind == "regenerate":
			if _, ok := obs.ParseReason(line.Event.Reason); !ok {
				t.Fatalf("regenerate event with unparseable reason %q", line.Event.Reason)
			}
			regens++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream ended without a result line")
	}
	if regens == 0 {
		t.Error("attrib events stream carried no regenerate events")
	}
	if regens != final.Regenerations {
		t.Errorf("streamed %d regenerate events, result regenerated %d", regens, final.Regenerations)
	}
	if sum := regenCauses(final.Causes); sum != final.Regenerations {
		t.Errorf("conservation violated on the streamed result: %d vs %d", sum, final.Regenerations)
	}
}
