package core

import (
	"reflect"
	"testing"

	"repro/internal/codecache"
	"repro/internal/obs"
	"repro/internal/stats"
)

// selectorRun drives a deterministic synthetic workload through a one-tier
// auto graph and returns everything observable about the selection: switch
// events in order, final live policies, selector counters, and a tally of
// the graph's event stream.
// The workload has two phases — a stable hot set, then a phase change to a
// second hot set — with regeneration on miss, the way the replayer (and the
// real DBT) responds to a cache miss.
func selectorRun(t *testing.T) (switches []string, live []string, ss SelectorStats, tally stats.Tally) {
	t.Helper()
	spec := UnifiedSpec(1000)
	spec.Tiers[0].Policy = "auto"
	// flush-when-full first: it is the initial live policy and pathological
	// for a stable hot set (one overflow discards the whole set), so the LRU
	// shadow must build a commanding lead and force a switch.
	spec.Selector = &SelectorConfig{Epoch: 64, Candidates: []string{"flush-when-full", "lru"}}
	g, err := NewGraph(spec, obs.Func(func(e obs.Event) {
		tally.Add(&e)
		if e.Kind == obs.KindPolicySwitch {
			switches = append(switches, e.Policy)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	touch := func(id uint64) {
		if !g.Access(id) {
			// Miss: the DBT regenerates the trace.
			if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Phase 1: ids 1..8 cycle with a cold intruder every 16 probes.
	intruder := uint64(100)
	for i := 0; i < 4000; i++ {
		touch(uint64(1 + i%8))
		if i%16 == 15 {
			touch(intruder)
			intruder++
		}
	}
	// Phase 2: the working set moves.
	for i := 0; i < 4000; i++ {
		touch(uint64(50 + i%8))
		if i%16 == 15 {
			touch(intruder)
			intruder++
		}
	}
	ssOut, ok := g.SelectorStats()
	if !ok {
		t.Fatal("auto graph reports no selector stats")
	}
	return switches, g.LivePolicies(), ssOut, tally
}

// TestSelectorSwitchesOffPathologicalPolicy: the online selector must abandon
// flush-when-full for LRU on a hot-set workload, announce the switch on the
// observer stream, and report it in its counters.
func TestSelectorSwitchesOffPathologicalPolicy(t *testing.T) {
	switches, live, ss, _ := selectorRun(t)
	if ss.Switches == 0 {
		t.Fatal("selector never switched away from flush-when-full")
	}
	if uint64(len(switches)) != ss.Switches {
		t.Errorf("%d KindPolicySwitch events for %d recorded switches", len(switches), ss.Switches)
	}
	if len(switches) == 0 || switches[0] != "lru" {
		t.Errorf("first switch = %v, want lru", switches)
	}
	if len(live) != 1 || live[0] != "lru" {
		t.Errorf("final live policies = %v, want [lru]", live)
	}
	if ss.Epochs == 0 {
		t.Error("no epochs recorded")
	}
}

// TestSelectorDeterministic: two identical runs must agree on every
// observable — switch sequence, live policies, selector counters, and the
// graph's event tally. Selection is keyed to the access counter, so there is
// no scheduling or timing input to diverge on.
func TestSelectorDeterministic(t *testing.T) {
	sw1, live1, ss1, st1 := selectorRun(t)
	sw2, live2, ss2, st2 := selectorRun(t)
	if !reflect.DeepEqual(sw1, sw2) {
		t.Errorf("switch sequences differ: %v vs %v", sw1, sw2)
	}
	if !reflect.DeepEqual(live1, live2) {
		t.Errorf("live policies differ: %v vs %v", live1, live2)
	}
	if ss1 != ss2 {
		t.Errorf("selector stats differ: %+v vs %+v", ss1, ss2)
	}
	if st1 != st2 {
		t.Errorf("event tallies differ: %+v vs %+v", st1, st2)
	}
}

// TestSelectorDisabledMatchesStatic: a graph with selection disabled must
// behave bit-identically to a static graph — the selector must be pay-for-use.
func TestSelectorDisabledMatchesStatic(t *testing.T) {
	run := func(spec GraphSpec) (tally stats.Tally) {
		g, err := NewGraph(spec, obs.Func(func(e obs.Event) { tally.Add(&e) }))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			id := uint64(1 + i%12)
			if !g.Access(id) {
				if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tally
	}
	static := run(UnifiedSpec(800))
	spec := UnifiedSpec(800)
	spec.Tiers[0].Policy = "pseudo-circular"
	named := run(spec)
	if static != named {
		t.Errorf("naming the default policy changed behavior: %+v vs %+v", static, named)
	}
}

// TestAutoTierAccessAllocationFree: with the selector attached, a tier hit —
// arena access, policy bookkeeping, and one probe per shadow — must not
// allocate in steady state. This is the guard that keeps selection cheap
// enough to leave on.
func TestAutoTierAccessAllocationFree(t *testing.T) {
	spec := UnifiedSpec(1000)
	spec.Tiers[0].Policy = "auto"
	spec.Selector = &SelectorConfig{Epoch: 64}
	g, err := NewGraph(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 8; id++ {
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up through several epochs so policy tables and shadow state settle.
	for i := 0; i < 8192; i++ {
		g.Access(uint64(1 + i%8))
	}
	id := uint64(0)
	if avg := testing.AllocsPerRun(4096, func() {
		g.Access(uint64(1 + id%8))
		id++
	}); avg != 0 {
		t.Errorf("auto-tier Access allocates %.2f per op on the hit path", avg)
	}
}

// BenchmarkAutoTierAccess measures the steady-state hit path with the
// selector attached (live policy plus one shadow per candidate).
func BenchmarkAutoTierAccess(b *testing.B) {
	spec := UnifiedSpec(1000)
	spec.Tiers[0].Policy = "auto"
	spec.Selector = &SelectorConfig{Epoch: 64}
	g, err := NewGraph(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	for id := uint64(1); id <= 8; id++ {
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 8192; i++ {
		g.Access(uint64(1 + i%8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Access(uint64(1 + i%8))
	}
}
