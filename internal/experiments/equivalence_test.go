package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/workload"
)

// TestFastDispatchEquivalence is the contract behind the hot-path work: the
// dense-index/inline-cache dispatch path is an implementation detail, so a
// collection pass with slow dispatch (the original map-based lookups) must be
// bit-for-bit identical — same RunStats, same cache-event log, and therefore
// the same Figure 9 rows after replaying through both the unified and the
// generational cache managers.
func TestFastDispatchEquivalence(t *testing.T) {
	collect := func(slow bool) *Suite {
		s := &Suite{Scale: 0.05, Parallel: 1}
		for _, name := range []string{"gzip", "solitaire", "word"} {
			p, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("%s profile missing", name)
			}
			run, err := collectOne(p, s.Scale, slow)
			if err != nil {
				t.Fatal(err)
			}
			s.Runs = append(s.Runs, run)
		}
		return s
	}
	fast, slow := collect(false), collect(true)

	if len(fast.Runs) != len(slow.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(fast.Runs), len(slow.Runs))
	}
	for i, fr := range fast.Runs {
		sr := slow.Runs[i]
		if !reflect.DeepEqual(fr.Stats, sr.Stats) {
			t.Errorf("%s: RunStats differ\nfast: %+v\nslow: %+v", fr.Profile.Name, fr.Stats, sr.Stats)
		}
		if !reflect.DeepEqual(fr.Events, sr.Events) {
			t.Errorf("%s: cache-event logs differ (%d vs %d events)",
				fr.Profile.Name, len(fr.Events), len(sr.Events))
		}
		if !reflect.DeepEqual(fr.Summary, sr.Summary) {
			t.Errorf("%s: log summaries differ", fr.Profile.Name)
		}
	}

	fastFig9, err := Figure9(fast)
	if err != nil {
		t.Fatal(err)
	}
	slowFig9, err := Figure9(slow)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastFig9, slowFig9) {
		t.Errorf("Figure 9 results differ between fast and slow dispatch")
	}
}

// TestFastDispatchEquivalenceGenerational drives the engine itself (not just
// replays of its log) under a generational manager, fast vs slow dispatch:
// bounded capacity makes the engine take the eviction/regeneration paths the
// unbounded collection run never exercises.
func TestFastDispatchEquivalenceGenerational(t *testing.T) {
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	run := func(slow bool) dbt.RunStats {
		bench, err := workload.Synthesize(p.Scaled(0.05))
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := core.NewGraph(core.Layout451045Threshold1(48<<10), nil)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := dbt.New(bench.Image, dbt.Config{Manager: mgr, SlowDispatch: slow})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(bench.NewDriver(), 0); err != nil {
			t.Fatal(err)
		}
		return eng.Stats()
	}
	fast, slow := run(false), run(true)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("generational RunStats differ\nfast: %+v\nslow: %+v", fast, slow)
	}
}

// Negative parallelism must be rejected at the API boundary, not just by the
// CLI flag handling.
func TestNegativeParallelRejected(t *testing.T) {
	ctx := context.Background()
	if _, err := CollectContext(ctx, Options{Benchmarks: []string{"gzip"}, Parallel: -1}); err == nil {
		t.Error("CollectContext accepted Parallel: -1")
	}
	if _, err := OptimizerImpactContext(ctx, []string{"gzip"}, 0.05, -2); err == nil {
		t.Error("OptimizerImpactContext accepted parallel -2")
	}
	if _, err := RobustnessContext(ctx, []string{"gzip"}, 0.05, nil, -3); err == nil {
		t.Error("RobustnessContext accepted parallel -3")
	}
}
