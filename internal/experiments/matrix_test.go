package experiments

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attrib"
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

	s := &Suite{Scale: 1, Parallel: 1, byName: map[string]*Run{}}
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
	} else if u, err := sim.ReplayUnified("hits", hits.Events, c, costmodel.DefaultModel); err != nil || u.Accesses == 0 || u.Misses != 0 {
		t.Fatalf("hits baseline: %+v, %v; want accesses and no misses", u, err)
	}
	capacity := misses.MaxTraceBytes() / 2
	cmp, err := sim.Compare("misses", misses.Events, core.Layout451045Threshold1(capacity))
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

// len returns how many results the memo holds.
func (m *replayMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.res)
}

// memoFree returns a suite over s's runs with an empty result memo, at the
// given parallelism, so a study run on it replays every log.
func memoFree(s *Suite, parallel int) *Suite {
	return &Suite{Scale: s.Scale, Parallel: parallel, Runs: s.Runs, byName: s.byName, ctx: s.ctx}
}

// TestFigure11ReusesFigure9 checks that Figure 11 on a suite Figure 9 has
// replayed reads every result from the memo, adding no entry, and equals
// Figure 11 on a memo-free suite, sequentially and on four workers.
func TestFigure11ReusesFigure9(t *testing.T) {
	base, err := Collect(Options{Scale: 0.05, Benchmarks: []string{"gzip", "applu", "solitaire"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		s := memoFree(base, parallel)
		if _, err := Figure9(s); err != nil {
			t.Fatal(err)
		}
		n := s.memo.len()
		if want := len(s.Runs) * (1 + len(figure9Layouts(1))); n != want {
			t.Errorf("parallel %d: Figure 9 left %d memo entries, want %d", parallel, n, want)
		}
		got, err := Figure11(s)
		if err != nil {
			t.Fatal(err)
		}
		if s.memo.len() != n {
			t.Errorf("parallel %d: Figure 11 added %d memo entries after Figure 9", parallel, s.memo.len()-n)
		}
		want, err := Figure11(memoFree(base, parallel))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel %d: Figure 11 from the memo %+v, replayed %+v", parallel, got, want)
		}
	}
}

// TestMemoKeys checks that two specs share a memo key exactly when they
// replay the same: an alias and its canonical spelling share one, and a
// one-ulp fraction, a threshold, a promote-on-access flag, a tier policy or
// a capacity apart do not. Each shared key's replay equals the other
// spelling's, graph name included; another log under one spec is another
// entry.
func TestMemoKeys(t *testing.T) {
	s := handSuite(t)
	misses, _ := s.Get("misses")
	hits, _ := s.Get("hits")
	c := misses.MaxTraceBytes() / 2
	parsed := func(text string) core.GraphSpec {
		t.Helper()
		spec, err := core.ParseTierSpec(text, c)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	unified := func(policy string) core.GraphSpec {
		return core.GraphSpec{TotalCapacity: c, Tiers: []core.TierSpec{{Frac: 1, Policy: policy}}}
	}
	paper := core.Layout451045Threshold1(c)
	edit := func(f func(*core.GraphSpec)) core.GraphSpec {
		spec := core.Layout451045Threshold1(c)
		f(&spec)
		return spec
	}
	for _, tc := range []struct {
		name string
		a, b core.GraphSpec
		same bool
	}{
		{"100@circ", parsed("100@circ"), core.UnifiedSpec(c), true},
		{"circ alias", unified("circ"), core.UnifiedSpec(c), true},
		{"pseudo-circular", unified("pseudo-circular"), core.UnifiedSpec(c), true},
		{"flush alias", unified("flush"), unified("flush-when-full"), true},
		{"tier string", parsed("45-10-45@1"), paper, true},
		{"lru tiers", parsed("45@lru-10@lru-45@lru@1"), edit(func(s *core.GraphSpec) {
			for i := range s.Tiers {
				s.Tiers[i].Policy = "lru"
			}
		}), true},
		{"one ulp", edit(func(s *core.GraphSpec) { s.Tiers[0].Frac = math.Nextafter(s.Tiers[0].Frac, 1) }), paper, false},
		{"threshold", edit(func(s *core.GraphSpec) { s.Tiers[1].Threshold = 2 }), paper, false},
		{"promote on access", edit(func(s *core.GraphSpec) { s.Tiers[1].PromoteOnAccess = false }), paper, false},
		{"tier policy", edit(func(s *core.GraphSpec) { s.Tiers[2].Policy = "lru" }), paper, false},
		{"capacity", core.Layout451045Threshold1(c + 1), paper, false},
	} {
		_, ka, okA := memoSpec(tc.a)
		_, kb, okB := memoSpec(tc.b)
		if !okA || !okB {
			t.Errorf("%s: memoSpec refused a plain spec", tc.name)
			continue
		}
		if (ka == kb) != tc.same {
			t.Errorf("%s: keys %q and %q, want shared %v", tc.name, ka, kb, tc.same)
		}
		if !tc.same {
			continue
		}
		m := &memoFree(s, 1).memo
		ra, err := m.replay(misses, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := memoFree(s, 1).memo.replay(misses, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: replays differ: %+v and %+v", tc.name, ra, rb)
		}
		if hit, err := m.replay(misses, tc.b); err != nil || !reflect.DeepEqual(hit, ra) || m.len() != 1 {
			t.Errorf("%s: second spelling read %+v (%v) with %d entries, want the first's result from one entry", tc.name, hit, err, m.len())
		}
	}

	m := &memoFree(s, 1).memo
	for _, r := range []*Run{misses, hits, misses} {
		if _, err := m.replay(r, paper); err != nil {
			t.Fatal(err)
		}
	}
	if m.len() != 2 {
		t.Errorf("one spec on two logs left %d memo entries, want 2", m.len())
	}
}

// TestMemoSkips checks what never touches the memo: a study that keeps a
// graph neither reads nor fills it, and a spec with an adaptive controller,
// a selector configuration or a ledger is never memoized.
func TestMemoSkips(t *testing.T) {
	s := handSuite(t)
	misses, _ := s.Get("misses")
	capacity := uint64(float64(misses.MaxTraceBytes()) * halfPeak[0])
	_, key, _ := memoSpec(core.UnifiedSpec(capacity))
	poison := sim.Result{Config: "poisoned"}
	baselines := func(keep int) []string {
		t.Helper()
		m, err := replayMatrix(s, halfPeak, keep, headline, func(c replayed) (string, bool) {
			return c.res[0].Config, c.run == misses
		})
		if err != nil {
			t.Fatal(err)
		}
		return m[0]
	}

	for _, keep := range []int{0, 1} {
		s.memo = replayMemo{res: map[memoKey]sim.Result{{misses, key}: poison}}
		if got := baselines(keep); !slices.Equal(got, []string{"unified/pseudo-circular"}) || s.memo.len() != 1 {
			t.Errorf("keep %d: baselines %v with %d memo entries; a kept-graph job read or filled the memo", keep, got, s.memo.len())
		}
	}
	// The poisoned entry is visible to a job that keeps no graph, so the
	// check above would have seen a read.
	if got := baselines(noGraph); !slices.Equal(got, []string{"poisoned"}) {
		t.Errorf("noGraph baselines %v, want the poisoned entry", got)
	}

	s.memo = replayMemo{}
	for name, set := range map[string]func(*core.GraphSpec){
		"adaptive": func(g *core.GraphSpec) { g.Adaptive = &core.AdaptiveConfig{Epoch: 512} },
		"selector": func(g *core.GraphSpec) { g.Selector = &core.SelectorConfig{Epoch: 256} },
		"attrib":   func(g *core.GraphSpec) { g.Attrib = &attrib.Config{} },
	} {
		spec := core.Layout451045Threshold1(capacity)
		set(&spec)
		if _, _, ok := memoSpec(spec); ok {
			t.Errorf("%s: memoSpec accepted the spec", name)
		}
		if _, err := replayMatrix(s, halfPeak, noGraph, func(c uint64) []core.GraphSpec {
			spec := core.Layout451045Threshold1(c)
			set(&spec)
			return []core.GraphSpec{spec}
		}, func(replayed) (int, bool) { return 0, true }); err != nil {
			t.Fatal(err)
		}
		if n := s.memo.len(); n != 0 {
			t.Errorf("%s: replays left %d memo entries", name, n)
		}
	}
}
