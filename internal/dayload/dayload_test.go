package dayload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// testDay is a compressed two-benchmark day small enough for CI: the
// standard day's shape (diurnal curves, a 4am deploy, an evening crowd) at
// reduced traffic and scale, 720x compression (24h declared = 2min virtual —
// virtual time costs nothing, but every session is a real replay).
func testDay(seed int64, sessions int) Spec {
	s := StandardDay(seed, sessions)
	s.TimeScale = 720
	s.Scale = 0.02
	return s
}

// testLogs pre-synthesizes the day's logs once so every Run in the package
// shares bytes instead of re-synthesizing.
var testLogs = func() map[string][]byte {
	logs := make(map[string][]byte)
	for _, b := range []string{"gzip", "word", "solitaire"} {
		data, err := workload.SyntheticLog(b, 0.02)
		if err != nil {
			panic(err)
		}
		logs[b] = data
	}
	return logs
}()

func autoOpts() Options {
	return Options{
		Slots: 1,
		Queue: 2,
		Autoscale: &server.AutoscaleConfig{
			MinSlots: 1,
			MaxSlots: 8,
		},
		TickEvery:    15 * time.Minute,
		LoadReactive: true,
		Logs:         testLogs,
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := testDay(42, 30)
	a, err := Run(spec, autoOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, autoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV != b.CSV {
		t.Errorf("timeline CSV differs across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.CSV, b.CSV)
	}
	if a.NDJSON != b.NDJSON {
		t.Error("NDJSON event stream differs across identical runs")
	}
	if a.Served != b.Served || a.Rejected != b.Rejected || a.Resizes != b.Resizes {
		t.Errorf("reports differ: (%d,%d,%d) vs (%d,%d,%d)",
			a.Served, a.Rejected, a.Resizes, b.Served, b.Rejected, b.Resizes)
	}
	if a.P95Latency != b.P95Latency || a.AvgMemBytes != b.AvgMemBytes {
		t.Errorf("latency/memory differ: p95 %s vs %s, mem %f vs %f",
			a.P95Latency, b.P95Latency, a.AvgMemBytes, b.AvgMemBytes)
	}
}

func TestRunAccountsEverySession(t *testing.T) {
	spec := testDay(7, 30)
	r, err := Run(spec, autoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Sessions != 30 {
		t.Errorf("arrivals = %d, want 30", r.Sessions)
	}
	if got := r.Served + r.Rejected + r.Failures + r.QueuedAtEnd; got != r.Sessions {
		t.Errorf("served %d + rejected %d + failed %d + unfinished %d = %d, want %d",
			r.Served, r.Rejected, r.Failures, r.QueuedAtEnd, got, r.Sessions)
	}
	if r.Failures != 0 {
		t.Errorf("%d sessions failed", r.Failures)
	}
	if r.Served == 0 {
		t.Error("no sessions served")
	}
	// 24 one-hour intervals on a 24h day.
	if len(r.Rows) != 24 {
		t.Errorf("%d timeline rows, want 24", len(r.Rows))
	}
	if !strings.HasPrefix(r.CSV, CSVHeader+"\n") {
		t.Errorf("CSV does not start with the schema header:\n%s", r.CSV)
	}
	if lines := strings.Count(r.CSV, "\n"); lines != 25 {
		t.Errorf("CSV has %d lines, want 25 (header + 24 rows)", lines)
	}
}

func TestRunDeployAndCrowdAppearInStream(t *testing.T) {
	spec := testDay(11, 30)
	r, err := Run(spec, autoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.NDJSON, `"kind":"deploy"`) {
		t.Error("no deploy event in the NDJSON stream")
	}
	if !strings.Contains(r.NDJSON, `"crowd":true`) {
		t.Error("no crowd arrival in the NDJSON stream")
	}
	if !strings.Contains(r.NDJSON, `"bench":"solitaire"`) {
		t.Error("crowd benchmark never arrived")
	}
}

func TestRunAutoscalerResizes(t *testing.T) {
	spec := testDay(3, 40)
	r, err := Run(spec, autoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Resizes == 0 {
		t.Error("autoscaled day saw no admission resizes")
	}
	if !strings.Contains(r.NDJSON, `"kind":"resize"`) {
		t.Error("no resize event in the NDJSON stream")
	}
}

func TestRunStaticUnderprovisionedRejects(t *testing.T) {
	spec := testDay(3, 40)
	r, err := Run(spec, Options{Slots: 1, Queue: 0, Logs: testLogs})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rejected == 0 {
		t.Error("1-slot, 0-queue day rejected nothing under a 40-session load")
	}
	if r.Resizes != 0 {
		t.Errorf("static day resized %d times", r.Resizes)
	}
}

func TestRunVerifiedAgainstOffline(t *testing.T) {
	spec := testDay(5, 16)
	opts := autoOpts()
	opts.Verify = true
	r, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.VerifyFailed != 0 {
		t.Errorf("%d served sessions diverged from their offline replay", r.VerifyFailed)
	}
	if r.Served == 0 {
		t.Error("no sessions served")
	}
}

// TestRunAttribTimeline: an attribution day carries per-interval cause
// columns that sum to the day totals, the totals conserve against the day's
// regenerations, and offline verification still passes — the ledger
// observes, never perturbs.
func TestRunAttribTimeline(t *testing.T) {
	spec := testDay(11, 30)
	opts := autoOpts()
	opts.Attrib = true
	opts.Verify = true
	r, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.VerifyFailed != 0 {
		t.Errorf("%d attrib sessions diverged from their offline replay", r.VerifyFailed)
	}
	if r.Regenerations == 0 {
		t.Fatal("day produced no regenerations; nothing to attribute")
	}
	if !r.CausesConserved() {
		t.Errorf("day-wide conservation violated: causes %+v vs %d regenerations", r.Causes, r.Regenerations)
	}
	var rowSum, regenSum uint64
	for _, row := range r.Rows {
		c := row.Causes
		rowSum += c.Cold + c.Capacity + c.PrematureDemotion + c.NeverPromoted + c.UnmapForced + c.AdoptionMiss
		regenSum += c.Capacity + c.PrematureDemotion + c.NeverPromoted + c.UnmapForced + c.AdoptionMiss
	}
	tot := r.Causes
	if want := tot.Cold + tot.Capacity + tot.PrematureDemotion + tot.NeverPromoted + tot.UnmapForced + tot.AdoptionMiss; rowSum != want {
		t.Errorf("interval cause columns sum to %d, day totals to %d", rowSum, want)
	}
	if regenSum != r.Regenerations {
		t.Errorf("interval regen causes sum to %d, day regenerated %d", regenSum, r.Regenerations)
	}
	if !strings.Contains(r.String(), "why: ") {
		t.Error("day report has no why line")
	}
}

// TestRunAttribDeterministic: attribution output — CSV cause columns
// included — is byte-reproducible.
func TestRunAttribDeterministic(t *testing.T) {
	spec := testDay(42, 20)
	opts := autoOpts()
	opts.Attrib = true
	a, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV != b.CSV {
		t.Error("attrib timeline CSV differs across identical runs")
	}
	if a.Causes != b.Causes || a.Regenerations != b.Regenerations {
		t.Errorf("attrib totals differ: %+v/%d vs %+v/%d", a.Causes, a.Regenerations, b.Causes, b.Regenerations)
	}
}

// TestRunAttribOffMatchesOn: attaching the ledger changes no replay-visible
// outcome — the same day with and without attribution serves, rejects, and
// queues identically, byte for byte on the event stream.
func TestRunAttribOffMatchesOn(t *testing.T) {
	spec := testDay(7, 20)
	off, err := Run(spec, autoOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := autoOpts()
	opts.Attrib = true
	on, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if off.NDJSON != on.NDJSON {
		t.Error("attribution perturbed the day's event stream")
	}
	if off.Served != on.Served || off.Rejected != on.Rejected || off.P95Latency != on.P95Latency {
		t.Errorf("attribution perturbed the day: (%d,%d,%s) vs (%d,%d,%s)",
			off.Served, off.Rejected, off.P95Latency, on.Served, on.Rejected, on.P95Latency)
	}
}

func TestCompileDeterministicSchedule(t *testing.T) {
	spec := testDay(9, 25).withDefaults()
	a, err := spec.compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	h := Diurnal(14, 0.2, 1.0)
	if h[14] != 1.0 {
		t.Errorf("peak hour weight = %f, want 1", h[14])
	}
	if d := h[2] - 0.2; d < -1e-9 || d > 1e-9 {
		t.Errorf("trough weight = %f, want 0.2", h[2])
	}
	if h[8] <= h[2] || h[8] >= h[14] {
		t.Errorf("ramp not monotone: h[2]=%f h[8]=%f h[14]=%f", h[2], h[8], h[14])
	}
}
