package repro_test

import (
	"bytes"
	"testing"

	"repro"
)

// TestPublicAPIEndToEnd drives the whole facade: synthesize, run under the
// engine with a log, replay under both managers, compare.
func TestPublicAPIEndToEnd(t *testing.T) {
	profile, ok := repro.BenchmarkByName("solitaire")
	if !ok {
		t.Fatal("solitaire missing")
	}
	profile = profile.Scaled(0.05)

	bench, err := repro.Synthesize(profile)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := repro.NewLogWriter(&buf, profile.Name, profile.DurationMicros())
	if err != nil {
		t.Fatal(err)
	}
	lt := repro.NewLifetimes()
	engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{
		Manager:   repro.NewUnified(1<<40, nil),
		Log:       w,
		Lifetimes: lt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(bench.NewDriver(), 0); err != nil {
		t.Fatal(err)
	}
	s := engine.Stats()
	if s.TracesCreated == 0 || s.Accesses == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if lt.Len() != int(s.TracesCreated) {
		t.Errorf("lifetimes %d != traces %d", lt.Len(), s.TracesCreated)
	}

	name, events, err := repro.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "solitaire" {
		t.Errorf("log benchmark = %q", name)
	}
	peak := repro.UnboundedPeak(events)
	if peak == 0 {
		t.Fatal("no unbounded peak")
	}

	capacity := peak / 2
	cmp, err := repro.Compare(name, events, repro.BestLayout(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Unified.Misses == 0 {
		t.Fatal("no unified misses at half capacity")
	}
	if cmp.MissRateReduction() <= 0 {
		t.Errorf("miss-rate reduction = %v, want positive on solitaire", cmp.MissRateReduction())
	}
	if cmp.MissesEliminated() <= 0 {
		t.Errorf("misses eliminated = %d", cmp.MissesEliminated())
	}
	if r := cmp.OverheadRatio(); r <= 0 || r > 2 {
		t.Errorf("overhead ratio = %v", r)
	}
}

// TestPublicAPIManagers covers the manager constructors and policies.
func TestPublicAPIManagers(t *testing.T) {
	u := repro.NewUnified(1000, nil)
	if err := u.Insert(repro.Fragment{ID: 1, Size: 100}); err != nil {
		t.Fatal(err)
	}
	if !u.Access(1) || u.Access(2) {
		t.Error("unified access wrong")
	}

	for _, tiers := range []string{"100@circ", "100@lru", "100@flush", "100@preflush"} {
		spec, err := repro.ParseTierSpec(tiers, 500)
		if err != nil {
			t.Fatal(err)
		}
		m, err := repro.NewTierGraph(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 10; id++ {
			if err := m.Insert(repro.Fragment{ID: id, Size: 100}); err != nil {
				t.Fatalf("%s: %v", tiers, err)
			}
		}
		if m.Used() > m.Capacity() {
			t.Errorf("%s: used %d > capacity %d", tiers, m.Used(), m.Capacity())
		}
	}

	g, err := repro.NewTierGraph(repro.BestLayout(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Capacity() != 1000 {
		t.Errorf("capacity = %d", g.Capacity())
	}
	if _, err := repro.NewTierGraph(repro.GraphSpec{}, nil); err == nil {
		t.Error("zero spec accepted")
	}
}

// TestPublicAPIInterpreter covers the VM path through the facade.
func TestPublicAPIInterpreter(t *testing.T) {
	profile, _ := repro.BenchmarkByName("art")
	bench, err := repro.Synthesize(profile.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic images are driver-driven, but the interpreter must at
	// least be constructible on them and able to report its image.
	m := repro.NewInterpreter(bench.Image)
	if m.Image() != bench.Image {
		t.Error("interpreter image mismatch")
	}
	g := repro.VMGuest(m)
	if g.Image() != bench.Image {
		t.Error("guest image mismatch")
	}
}

// TestPublicAPIBenchmarkTable sanity-checks the exported benchmark list.
func TestPublicAPIBenchmarkTable(t *testing.T) {
	all := repro.Benchmarks()
	if len(all) != 32 {
		t.Fatalf("benchmarks = %d, want 32", len(all))
	}
	if _, ok := repro.BenchmarkByName("word"); !ok {
		t.Error("word missing")
	}
	if repro.DefaultCostModel.TraceGen(242) < 69000 {
		t.Error("cost model wrong")
	}
}

// TestReplayWith exercises the generic replay hook wiring.
func TestReplayWith(t *testing.T) {
	events := []repro.Event{
		{Kind: 1, Time: 1, Trace: 1, Size: 100},
		{Kind: 2, Time: 2, Trace: 1},
		{Kind: 6, Time: 3},
	}
	res, err := repro.ReplayWith("x", events, func(h repro.Observer) *repro.TierGraph {
		return repro.NewUnified(1000, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 1 || res.Misses != 0 {
		t.Errorf("result = %+v", res)
	}
}
