package experiments

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/sim"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// handSuite builds a suite from three hand-written logs, in this order:
//   - "empty" creates no trace, so every capacity derived from its peak
//     rounds to 0;
//   - "hits" creates two traces that are unmapped unaccessed, then loops on
//     a third that fits in half the peak, so its unified baseline only hits;
//   - "misses" cycles one hot trace among nineteen cold ones through a cache
//     too small for all of them, so its baseline misses.
func handSuite(t *testing.T) *Suite {
	t.Helper()
	var now uint64
	ev := func(e tracelog.Event) tracelog.Event {
		now++
		e.Time = now
		return e
	}
	create := func(id, size uint64, module uint16) tracelog.Event {
		return ev(tracelog.Event{Kind: tracelog.KindCreate, Trace: id, Size: uint32(size), Module: module, Head: 0x1000 * id})
	}
	access := func(id uint64) tracelog.Event { return ev(tracelog.Event{Kind: tracelog.KindAccess, Trace: id}) }
	end := func() tracelog.Event { return ev(tracelog.Event{Kind: tracelog.KindEnd}) }

	hits := []tracelog.Event{create(1, 100, 1), create(2, 100, 1), ev(tracelog.Event{Kind: tracelog.KindUnmap, Module: 1}), create(3, 100, 2)}
	for range 8 {
		hits = append(hits, access(3))
	}
	hits = append(hits, end())

	var misses []tracelog.Event
	for id := uint64(1); id <= 20; id++ {
		misses = append(misses, create(id, 10, 1))
	}
	for round := 0; round < 10; round++ {
		for id := uint64(2); id <= 20; id++ {
			misses = append(misses, access(1), access(id))
		}
	}
	misses = append(misses, end())

	s := &Suite{Scale: 1, Model: costmodel.DefaultModel, Parallel: 1, byName: map[string]*Run{}}
	for _, l := range []struct {
		name   string
		suite  workload.Suite
		events []tracelog.Event
	}{
		{"empty", workload.SuiteSpecInt, []tracelog.Event{end()}},
		{"hits", workload.SuiteInteractive, hits},
		{"misses", workload.SuiteInteractive, misses},
	} {
		r := &Run{
			Profile: workload.Profile{Name: l.name, Suite: l.suite},
			Stats:   dbt.RunStats{GuestInstrs: 1 << 20},
			Events:  l.events,
			Summary: tracelog.Summarize(tracelog.Header{Benchmark: l.name}, l.events),
		}
		s.Runs = append(s.Runs, r)
		s.byName[l.name] = r
	}
	return s
}

func rowNames[T any](rows []T, name func(T) string) []string {
	var out []string
	for _, r := range rows {
		out = append(out, name(r))
	}
	return out
}

func sameNames(t *testing.T, study string, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s rows %v, want %v", study, got, want)
	}
}

// TestReplayMatrixSkipRules pins the studies' skip rules on hand-built logs,
// since no collected log reaches them: a log whose capacity rounds to 0 gets
// no row anywhere; a log whose unified baseline never misses keeps its row,
// with reduction 0, in Figure 9 and the capacity sweep, and is left out of
// the averages of the sweep, the ablations and the seed-robustness study.
func TestReplayMatrixSkipRules(t *testing.T) {
	s := handSuite(t)
	hits, _ := s.Get("hits")
	misses, _ := s.Get("misses")
	if c := hits.MaxTraceBytes() / 2; c == 0 {
		t.Fatal("hits log has no capacity")
	} else if u, err := sim.ReplayUnified("hits", hits.Events, c, s.Model); err != nil || u.Accesses == 0 || u.Misses != 0 {
		t.Fatalf("hits baseline: %+v, %v; want accesses and no misses", u, err)
	}
	capacity := misses.MaxTraceBytes() / 2
	cmp, err := sim.Compare("misses", misses.Events, capacity, core.Layout451045Threshold1(capacity), s.Model)
	if err != nil {
		t.Fatal(err)
	}
	red := cmp.MissRateReduction()
	if cmp.Unified.Misses == 0 || red == 0 {
		t.Fatalf("misses log: baseline misses %d, reduction %v; the test needs both nonzero", cmp.Unified.Misses, red)
	}

	fig9, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "Figure 9", rowNames(fig9.Rows, func(r Figure9Row) string { return r.Name }), "hits", "misses")
	if len(fig9.Rows) == 2 {
		for i, v := range fig9.Rows[0].Reductions {
			if v != 0 {
				t.Errorf("Figure 9 hits reduction %d = %v, want 0", i, v)
			}
		}
		if got := fig9.InteractAvg[1]; got != (0+red)/2 {
			t.Errorf("Figure 9 interactive 45-10-45@1 average = %v, want %v", got, (0+red)/2)
		}
		if got := fig9.Rows[1].UnifiedOverhead; got != cmp.Unified.Overhead.Total() {
			t.Errorf("Figure 9 misses baseline overhead = %v, want %v", got, cmp.Unified.Overhead.Total())
		}
	}
	for i, v := range fig9.SpecAvg {
		if v != 0 {
			t.Errorf("Figure 9 spec average %d = %v with no spec rows", i, v)
		}
	}

	fig11, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "Figure 11", rowNames(fig11.Rows, func(r Figure11Row) string { return r.Name }), "hits", "misses")
	sameNames(t, "cycle impact", rowNames(CycleImpact(s, fig9), func(r CycleImpactRow) string { return r.Name }), "hits", "misses")
	adaptive, err := AdaptiveVsStatic(s)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "adaptive", rowNames(adaptive, func(r AdaptiveRow) string { return r.Name }), "hits", "misses")
	sel, err := PolicySelection(s)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "policy selection", rowNames(sel, func(r PolicySelectRow) string { return r.Name }), "hits", "misses")

	points, err := CapacitySweep(s, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].AvgReduction != (0+red)/2 || points[0].UnifiedMissRate != (0+cmp.Unified.MissRate())/2 {
		t.Errorf("capacity sweep %+v, want one point averaging the hits and misses logs (reduction %v)", points, (0+red)/2)
	}

	sweep, err := Sweep(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sweep.Points {
		if p.Label() == "45-10-45@1" && p.AvgReduction != red {
			t.Errorf("sweep 45-10-45@1 average = %v, want the misses log's %v", p.AvgReduction, red)
		}
	}
	ablations, err := Ablations(s)
	if err != nil {
		t.Fatal(err)
	}
	if ablations[0].AvgReduction != red {
		t.Errorf("ablation %s average = %v, want the misses log's %v", ablations[0].Name, ablations[0].AvgReduction, red)
	}
	avg, n, err := headlineMean(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || avg != red {
		t.Errorf("robustness headline mean %v over %d logs, want %v over 1", avg, n, red)
	}
}

// TestReplayMatrixKeptGraph checks that a row builder sees exactly the
// kept spec's graph, and none when the study keeps none.
func TestReplayMatrixKeptGraph(t *testing.T) {
	s := handSuite(t)
	for _, keep := range []int{noGraph, 0, 1} {
		m, err := replayMatrix(s, halfPeak, keep, headline, func(c replayed) (*core.Graph, bool) {
			return c.graph, true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range m[0] {
			switch {
			case keep == noGraph && g != nil:
				t.Errorf("keep %d: row saw a graph", keep)
			case keep == 0 && (g == nil || g.Name() != "unified/pseudo-circular"):
				t.Errorf("keep %d: row saw %v, want the unified baseline", keep, g)
			case keep == 1 && (g == nil || g.Name() == "unified/pseudo-circular"):
				t.Errorf("keep %d: row saw %v, want the generational graph", keep, g)
			}
		}
	}
}
