// Integration tests for the gencached service, driven through the real HTTP
// stack (httptest) with the real client. CI runs these under -race: the
// service's core guarantee — concurrent sessions never perturb each other's
// replay — is exactly the kind of claim the race detector and bit-identical
// result comparison catch violations of.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/sim"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// testScale keeps synthetic logs small enough that eight concurrent replays
// finish quickly on a single-core CI runner while still promoting traces
// into the persistent generation (the publish path needs that).
const testScale = 0.03

var (
	logOnce sync.Once
	logMu   sync.Mutex
	logs    map[string][]byte
)

// syntheticLog synthesizes (and caches) one benchmark's event log.
func syntheticLog(t *testing.T, bench string) []byte {
	t.Helper()
	logOnce.Do(func() { logs = make(map[string][]byte) })
	logMu.Lock()
	defer logMu.Unlock()
	if data, ok := logs[bench]; ok {
		return data
	}
	data, err := workload.SyntheticLog(bench, testScale)
	if err != nil {
		t.Fatalf("synthesizing %s: %v", bench, err)
	}
	logs[bench] = data
	return data
}

// offlineResult replays the log locally with the server's default session
// configuration (capfrac 0.5, tiers 45-10-45@1) and renders the
// expectation in wire form — the ground truth every served result must hit.
func offlineResult(t *testing.T, logBytes []byte) api.SessionResult {
	t.Helper()
	h, events, err := tracelog.ReadAll(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	sum := tracelog.Summarize(h, events)
	capacity := uint64(float64(sum.MaxLiveBytes) * 0.5)
	res, err := sim.ReplayGenerational(h.Benchmark, events, core.Layout451045Threshold1(capacity), costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	exp := api.FromSim(res)
	exp.CapacityBytes = capacity
	exp.Events = uint64(len(events))
	return exp
}

// requireMatch compares a served result to the offline expectation modulo
// the service-only fields (session ID, shared-tier savings).
func requireMatch(t *testing.T, exp, got api.SessionResult) {
	t.Helper()
	got.Session = 0
	got.Shared = api.SharedSavings{}
	exp.Session = 0
	exp.Shared = api.SharedSavings{}
	if !reflect.DeepEqual(exp, got) {
		t.Errorf("served result diverges from offline replay:\n  offline: %+v\n  served:  %+v", exp, got)
	}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	cfg.Logf = t.Logf
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL)
}

// TestConcurrentSessionsMatchOffline is the headline guarantee: eight
// sessions replaying two different benchmarks concurrently over one shared
// tier each produce results bit-identical to an offline ccsim run of the
// same log.
func TestConcurrentSessionsMatchOffline(t *testing.T) {
	benches := []string{"word", "gzip"}
	expected := make([]api.SessionResult, len(benches))
	for i, b := range benches {
		expected[i] = offlineResult(t, syntheticLog(t, b))
	}

	_, c := newTestServer(t, server.Config{MaxSessions: 8})
	ctx := context.Background()

	const n = 8
	results := make([]api.SessionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := syntheticLog(t, benches[i%len(benches)])
			results[i], errs[i] = c.Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
		}(i)
	}
	wg.Wait()

	var published uint64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		requireMatch(t, expected[i%len(benches)], results[i])
		published += results[i].Shared.Published
	}
	if published == 0 {
		t.Error("no session published anything to the shared tier; the interplay never engaged")
	}
}

// TestAdoptionAcrossSessions runs the same benchmark twice in sequence: the
// second session must adopt traces the first published, and still match the
// offline replay exactly — adoption is accounting on the side, never a
// perturbation of the replay.
func TestAdoptionAcrossSessions(t *testing.T) {
	data := syntheticLog(t, "word")
	exp := offlineResult(t, data)
	_, c := newTestServer(t, server.Config{KeepWarm: true})
	ctx := context.Background()

	first, err := c.Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireMatch(t, exp, first)
	if first.Shared.Published == 0 {
		t.Fatal("first session published nothing; cannot test adoption")
	}

	second, err := c.Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireMatch(t, exp, second)
	if second.Shared.Adoptions == 0 {
		t.Error("second session adopted nothing despite a warm shared tier")
	}
	if second.Shared.SavedGenInstructions <= 0 {
		t.Error("adoptions reported but no generation cost saved")
	}
}

// TestOverloadRejectsWithoutDegrading saturates a one-slot, one-queue server
// with held-open streaming sessions, requires fresh sessions to bounce with
// 429, then releases the held streams and requires both to complete — load
// shedding must never cost an admitted session its result.
func TestOverloadRejectsWithoutDegrading(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxSessions: 1, QueueDepth: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const hold = 2
	release := make(chan struct{})
	results := make(chan error, hold)
	for i := 0; i < hold; i++ {
		pr, pw := io.Pipe()
		go func() {
			res, err := c.Session(ctx, client.SessionOptions{SessionConfig: api.SessionConfig{CapacityBytes: 1 << 20}}, pr)
			pr.Close()
			// The held log carries only its KindEnd marker.
			if err == nil && res.Events > 1 {
				err = fmt.Errorf("held session replayed %d events, want at most 1", res.Events)
			}
			results <- err
		}()
		go func() {
			w, err := tracelog.NewWriter(pw, tracelog.Header{Benchmark: "held"})
			if err == nil {
				err = w.Flush()
			}
			if err == nil {
				<-release
				if werr := w.Write(tracelog.Event{Kind: tracelog.KindEnd}); werr == nil {
					err = w.Flush()
				}
			}
			pw.CloseWithError(err)
		}()
	}

	// Wait until both held sessions occupy the slot and the queue position.
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.ActiveSessions+h.QueuedSessions >= hold {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("server never saturated: %v", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}

	for i := 0; i < 3; i++ {
		_, err := c.Session(ctx, client.SessionOptions{SessionConfig: api.SessionConfig{CapacityBytes: 1 << 20}}, bytes.NewReader(nil))
		if !errors.Is(err, client.ErrOverloaded) {
			t.Fatalf("probe %d on a saturated server: err = %v, want ErrOverloaded", i, err)
		}
	}

	close(release)
	for i := 0; i < hold; i++ {
		if err := <-results; err != nil {
			t.Errorf("held session degraded: %v", err)
		}
	}
}

// TestSnapshotRoundTrip runs sessions against a snapshotting server, shuts
// it down, and starts a successor over the same path: the successor must
// warm-start with exactly the published identities resident and serve a
// session that adopts them immediately — while still matching the offline
// replay. A successor whose tier cannot hold the image accounts for every
// record as restored or rejected.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "tier.ccpersist")
	data := syntheticLog(t, "word")
	exp := offlineResult(t, data)
	ctx := context.Background()

	srv1, c1 := newTestServer(t, server.Config{SnapshotPath: snap, KeepWarm: true})
	res, err := c1.Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shared.Published == 0 {
		t.Fatal("session published nothing; snapshot would be empty")
	}
	if err := srv1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	saved, records := snapshotIdentities(t, snap)
	if _, err := os.Stat(snap + ".modules.json"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot left a module sidecar beside it: %v", err)
	}

	// A tier one byte short of the largest trace rejects that trace (and
	// any of its size); the shared tier's pseudo-circular sweep makes room
	// for the rest by evicting.
	var largest uint32
	for id := range saved {
		largest = max(largest, id.Size)
	}
	small, err := server.New(server.Config{SnapshotPath: snap, KeepWarm: true, SharedCapacity: uint64(largest) - 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if ws := small.WarmStats(); ws.Rejected == 0 || ws.Restored+ws.Rejected != uint64(records) {
		t.Errorf("undersized successor: %+v for %d records", ws, records)
	}

	srv2, c2 := newTestServer(t, server.Config{SnapshotPath: snap, KeepWarm: true})
	if got := srv2.WarmStats().Restored; got != uint64(records) {
		t.Fatalf("successor restored %d of %d records", got, records)
	}
	if err := srv2.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if restored, _ := snapshotIdentities(t, snap); !reflect.DeepEqual(restored, saved) {
		t.Errorf("successor holds %d identities, the saved server %d:\n  restored: %v\n  saved:    %v",
			len(restored), len(saved), restored, saved)
	}
	res2, err := c2.Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireMatch(t, exp, res2)
	if res2.Shared.Adoptions == 0 {
		t.Error("session against a warm-started tier adopted nothing")
	}
}

// snapshotIdentities reads a snapshot file and names its records by
// portable identity; it also returns the record count.
func snapshotIdentities(t *testing.T, path string) (map[server.Identity]bool, int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := persist.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return server.PortableIdentities(t, img), len(img.Records)
}

// TestStaleSnapshotSkipped: a snapshot in a future format generation is
// stale state, not corruption — the server cold-starts past it. A snapshot
// that is actually garbage fails startup loudly.
func TestStaleSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "stale.ccpersist")
	if err := os.WriteFile(stale, []byte("CCPERSIST9\nfrom the future"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{SnapshotPath: stale, Logf: t.Logf})
	if err != nil {
		t.Fatalf("stale snapshot failed startup: %v", err)
	}
	if srv.WarmStats().Restored != 0 {
		t.Error("stale snapshot restored traces")
	}

	corrupt := filepath.Join(dir, "corrupt.ccpersist")
	if err := os.WriteFile(corrupt, []byte("NOTASNAPSHOT"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := server.New(server.Config{SnapshotPath: corrupt, Logf: t.Logf}); err == nil {
		t.Error("corrupt snapshot accepted silently")
	}
}

// TestTeardownDrainsSharedTier: without keep-warm the server holds no
// reference of its own, so a session's teardown (the deferred close behind
// every handler) drains its published traces from the shared tier.
func TestTeardownDrainsSharedTier(t *testing.T) {
	data := syntheticLog(t, "word")
	srv, c := newTestServer(t, server.Config{KeepWarm: false})
	res, err := c.Session(context.Background(), client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shared.Published == 0 {
		t.Fatal("session published nothing; nothing to drain")
	}
	if used := srv.Shared().Used(); used != 0 {
		t.Errorf("shared tier holds %d bytes after its only session closed", used)
	}
	if st := srv.Shared().Stats(); st.Drained == 0 {
		t.Error("no traces drained at session teardown")
	}
}

// TestKeepWarmOutlivesSessions is the inverse: with keep-warm the tier
// retains the published traces after their publishing session closes.
func TestKeepWarmOutlivesSessions(t *testing.T) {
	data := syntheticLog(t, "word")
	srv, c := newTestServer(t, server.Config{KeepWarm: true})
	res, err := c.Session(context.Background(), client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shared.Published == 0 {
		t.Fatal("session published nothing")
	}
	if srv.Shared().Used() == 0 {
		t.Error("keep-warm tier empty after its publishing session closed")
	}
}

// TestEventsStream drives a session in events mode and checks the NDJSON
// framing: a stream of event lines, then exactly one result line that still
// matches the offline replay.
func TestEventsStream(t *testing.T) {
	data := syntheticLog(t, "word")
	exp := offlineResult(t, data)
	_, c := newTestServer(t, server.Config{})

	u := c.BaseURL + api.SessionsPath + "?" + api.ParamEvents + "=1"
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var (
		events int
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
			if final != nil {
				t.Fatal("two result lines in one stream")
			}
			r := *line.Result
			final = &r
		case line.Event != nil:
			events++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream ended without a result line")
	}
	if events == 0 {
		t.Error("stream carried no event lines")
	}
	requireMatch(t, exp, *final)
}

// TestDrainingRefusesSessions: after StartDraining the session endpoint
// answers 503 and /healthz reports draining.
func TestDrainingRefusesSessions(t *testing.T) {
	srv, c := newTestServer(t, server.Config{})
	srv.StartDraining()
	ctx := context.Background()
	_, err := c.Session(ctx, client.SessionOptions{}, bytes.NewReader(syntheticLog(t, "word")))
	if !errors.Is(err, client.ErrDraining) {
		t.Fatalf("session on a draining server: err = %v, want ErrDraining", err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status %q, want draining", h.Status)
	}
}

// TestBadRequests covers the request-validation edges: malformed query
// parameters and malformed bodies are client errors, not server failures.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	base := c.BaseURL + api.SessionsPath
	data := syntheticLog(t, "word")
	for _, tc := range []struct {
		name, url string
		body      []byte
		status    int
	}{
		{"bad capfrac", base + "?" + api.ParamCapFrac + "=-1", nil, http.StatusBadRequest},
		{"NaN capfrac", base + "?" + api.ParamCapFrac + "=NaN", data, http.StatusBadRequest},
		{"NaN pressure", base + "?" + api.ParamPressure + "=NaN", data, http.StatusBadRequest},
		{"bad capacity", base + "?" + api.ParamCapacity + "=0", nil, http.StatusBadRequest},
		{"bad tiers", base + "?" + api.ParamTiers + "=garbage", data, http.StatusBadRequest},
		{"NaN tiers", base + "?" + api.ParamTiers + "=NaN-50-50@1", data, http.StatusBadRequest},
		{"ungated NaN tiers", base + "?" + api.ParamTiers + "=NaN-50-50", data, http.StatusBadRequest},
		{"bad policy, every tier named", base + "?" + api.ParamTiers + "=50@lru-50@trrip&" + api.ParamPolicy + "=nope", data, http.StatusBadRequest},
		{"empty preemptive-flush window", base + "?" + api.ParamPolicy + "=preemptive-flush:window=0", data, http.StatusBadRequest},
		{"trrip max past 255", base + "?" + api.ParamPolicy + "=trrip:max=263", data, http.StatusBadRequest},
		{"empty body", base, nil, http.StatusBadRequest},
		{"garbage body", base, []byte("this is not a tracelog"), http.StatusBadRequest},
	} {
		resp, err := http.Post(tc.url, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	// A retired spelling of the cache shape, or any other unknown
	// parameter, is refused by name.
	for _, name := range []string{"layout", "threshold", "unified", "bogus"} {
		resp, err := http.Post(base+"?"+name+"=1", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var e api.Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, strconv.Quote(name)) {
			t.Errorf("%s=1: status %d, error %q (%v); want 400 naming %q", name, resp.StatusCode, e.Error, err, name)
		}
	}
}

// TestSparseTraceIDRefused: a log whose one Create names a trace ID far
// past the traces registered before it is refused with a 400 naming the ID,
// in both capacity modes, and the replay refuses it before the ID sizes a
// per-trace table: an offline replay of it allocates under 8 MiB. The test
// does not run in parallel, so the allocation count is this test's.
func TestSparseTraceIDRefused(t *testing.T) {
	for _, id := range []uint64{1<<21 - 1, 1<<22 - 1} {
		var buf bytes.Buffer
		w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "sparse"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(tracelog.Event{Kind: tracelog.KindCreate, Time: 1, Trace: id, Size: 64, Module: 1}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		named := strconv.FormatUint(id, 10)

		for _, cfg := range []server.SessionConfig{{}, {Attrib: true}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := server.OfflineReplay(cfg, nil, data)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), named) {
				t.Errorf("ID %d, attrib %v: offline replay error %v, want one naming the ID", id, cfg.Attrib, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
				t.Errorf("ID %d, attrib %v: offline replay allocated %d bytes", id, cfg.Attrib, grew)
			}
		}

		_, c := newTestServer(t, server.Config{})
		for _, query := range []string{"", "?" + api.ParamCapacity + "=1048576"} {
			resp, err := http.Post(c.BaseURL+api.SessionsPath+query, "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var e api.Error
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, named) {
				t.Errorf("ID %d, query %q: status %d, error %q (%v); want 400 naming the ID", id, query, resp.StatusCode, e.Error, err)
			}
		}
	}
}

// TestBodyLimit: a body past MaxSessionBytes is cut off with 413.
func TestBodyLimit(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxSessionBytes: 1024})
	data := syntheticLog(t, "word")
	if len(data) <= 1024 {
		t.Fatalf("test log only %d bytes; cannot exceed the limit", len(data))
	}
	resp, err := http.Post(c.BaseURL+api.SessionsPath, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

// TestMetricsExposed: after a session, /metrics carries the aggregate
// counters in Prometheus text form, and the cache-event series carry the
// right values. After one events=1 session on a fresh server, every
// gencached_cache_events_total{kind,level} must equal the session's event
// lines tallied by kind and level (the to level for insert and promote, the
// from level otherwise, no level counting as unified). The one exception is
// {unmap,persistent}: the traces the session's close drains from the shared
// tier leave after the stream's closing line, so that series is the stream's
// count plus gencached_shared_tier_drained_total. A lost or doubled fold of
// a session's event tally breaks the equality.
func TestMetricsExposed(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	resp, err := http.Post(c.BaseURL+api.SessionsPath+"?"+api.ParamEvents+"=1", "application/octet-stream",
		bytes.NewReader(syntheticLog(t, "word")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamed := make(map[string]uint64)
	results := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line api.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Result != nil:
			results++
		case line.Event == nil:
			t.Fatalf("NDJSON line %q carries nothing", sc.Bytes())
		case line.Event.Kind != "progress":
			level := line.Event.From
			if line.Event.Kind == "insert" || line.Event.Kind == "promote" {
				level = line.Event.To
			}
			if level == "" {
				level = "unified"
			}
			streamed[line.Event.Kind+"/"+level]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if results != 1 {
		t.Fatalf("stream carried %d result lines, want 1", results)
	}

	// The handler closes the session (draining the shared tier) after the
	// closing line and before it releases the admission slot.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.ActiveSessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session still active 10s after its closing line")
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gencached_sessions_served_total 1",
		"gencached_replay_accesses_total",
		"gencached_shared_published_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	series := make(map[string]uint64)
	var drained uint64
	seriesRE := regexp.MustCompile(`(?m)^gencached_cache_events_total\{kind="([^"]+)",level="([^"]+)"\} (\d+)$`)
	for _, m := range seriesRE.FindAllStringSubmatch(text, -1) {
		n, _ := strconv.ParseUint(m[3], 10, 64)
		series[m[1]+"/"+m[2]] = n
	}
	if m := regexp.MustCompile(`(?m)^gencached_shared_tier_drained_total (\d+)$`).FindStringSubmatch(text); m != nil {
		drained, _ = strconv.ParseUint(m[1], 10, 64)
	} else {
		t.Fatal("/metrics has no gencached_shared_tier_drained_total")
	}

	want := make(map[string]uint64, len(streamed)+1)
	for k, n := range streamed {
		want[k] = n
	}
	want["unmap/persistent"] += drained
	if len(want) < 4 {
		t.Fatalf("stream tallied only %v; the session should evict, insert, promote and unmap", streamed)
	}
	for k := range series {
		if _, ok := want[k]; !ok {
			want[k] = 0
		}
	}
	for k, n := range want {
		if series[k] != n {
			t.Errorf("gencached_cache_events_total %s = %d, want %d (stream %d, drained %d)", k, series[k], n, streamed[k], drained)
		}
	}
	t.Logf("stream tally %v, drained %d", streamed, drained)
}

// TestBinaryStatsMatchesJSON: a session requesting the compact binary result
// framing gets field-for-field the same result as a JSON session — and both
// still match the offline replay, so the binary path is a pure re-encoding,
// not a second code path.
func TestBinaryStatsMatchesJSON(t *testing.T) {
	data := syntheticLog(t, "word")
	exp := offlineResult(t, data)
	_, c := newTestServer(t, server.Config{MaxSessions: 2})
	ctx := context.Background()

	jsonRes, err := c.Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	binRes, err := c.Session(ctx, client.SessionOptions{BinaryStats: true}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireMatch(t, exp, jsonRes)
	requireMatch(t, exp, binRes)
	// The framings must agree on the service-only fields too (modulo the
	// session ID, which is unique per session by design).
	jsonRes.Session, binRes.Session = 0, 0
	// The second run adopts what the first published; shared savings are
	// expected to differ. Everything else must be identical.
	jsonRes.Shared, binRes.Shared = api.SharedSavings{}, api.SharedSavings{}
	if !reflect.DeepEqual(jsonRes, binRes) {
		t.Errorf("binary result diverges from JSON result:\n  json:   %+v\n  binary: %+v", jsonRes, binRes)
	}
}

// TestBinaryStatsRoundTrip pins the binary codec itself: every field of a
// fully-populated result survives MarshalBinary → UnmarshalBinary.
func TestBinaryStatsRoundTrip(t *testing.T) {
	in := api.SessionResult{
		Session: 7, Benchmark: "word", Config: "gen(45-10-45)",
		CapacityBytes: 123456, Events: 99999,
		Accesses: 5000, Hits: 4800, Misses: 200, MissRate: 0.04,
		ColdCreates: 120, Regenerations: 80, Adoptions: 3, ForcedDeletes: 17,
		Overhead: api.Overhead{TotalInstructions: 1234567.25, TraceGens: 200, Evictions: 90, Promotions: 33},
		Shared:   api.SharedSavings{Adoptions: 5, Published: 11, SavedGenInstructions: 4242.5},
	}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out api.SessionResult
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n  in:  %+v\n  out: %+v", in, out)
	}
	if err := out.UnmarshalBinary(data[:len(data)-4]); err == nil {
		t.Error("truncated binary stats decoded without error")
	}
	if err := out.UnmarshalBinary([]byte("JSON{}")); err == nil {
		t.Error("bad magic decoded without error")
	}
	if err := out.UnmarshalBinary(append(data, 0, 0)); err == nil {
		t.Error("binary stats with a 2-byte tail decoded without error")
	}
}
