// Benchmarks that regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkFigureN
// / BenchmarkTableN executes the corresponding experiment and reports its
// headline quantity as a custom metric, so the bench output doubles as the
// paper-versus-measured record. The shared collection pass (one unbounded
// engine run per benchmark) happens once, outside the timed regions, at
// 1/32 of the paper's code sizes; run cmd/gencache for larger scales.
package repro_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/tracelog"
)

const benchScale = 1.0 / 8

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.Collect(experiments.Options{Scale: benchScale})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// replaySuite returns a suite over s's runs with an empty result memo and
// the given parallelism. A study run twice on one suite reads its second
// pass from the memo, so each timed pass gets a suite of its own.
func replaySuite(s *experiments.Suite, parallel int) *experiments.Suite {
	return &experiments.Suite{Scale: s.Scale, Parallel: parallel, Runs: s.Runs}
}

// BenchmarkCollect times the full collection pipeline (synthesis + engine
// run + log capture) for one representative benchmark per suite.
func BenchmarkCollect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Collect(experiments.Options{
			Scale:      benchScale,
			Benchmarks: []string{"gzip", "word"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperPass is one pass of perfbench's paper workload: collect
// gzip, gcc, crafty, eon, solitaire and word at 1/16 of the paper's code
// sizes on a pool of one, then derive Figures 9 and 11 from that fresh
// suite, where Figure 11 reads Figure 9's replays from the suite's memo. It
// reports the collected events per second of pass, perfbench's
// events_per_s.
func BenchmarkPaperPass(b *testing.B) {
	opt := experiments.Options{
		Scale:      1.0 / 16,
		Benchmarks: []string{"gzip", "gcc", "crafty", "eon", "solitaire", "word"},
		Parallel:   1,
	}
	var events int
	for i := 0; i < b.N; i++ {
		s, err := experiments.Collect(opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure9(s); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure11(s); err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Runs {
			events += len(r.Events)
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTable1 regenerates the interactive-benchmark table.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	b.ReportMetric(float64(len(rows)), "benchmarks")
}

// BenchmarkFigure1 regenerates the unbounded cache-size study.
func BenchmarkFigure1(b *testing.B) {
	s := benchSuite(b)
	var res experiments.Figure1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Figure1(s)
	}
	b.ReportMetric(res.SpecAvgKB, "spec_avg_KB")
	b.ReportMetric(res.InteractAvgKB, "interactive_avg_KB")
}

// BenchmarkFigure2 regenerates the code-expansion study.
func BenchmarkFigure2(b *testing.B) {
	s := benchSuite(b)
	var res experiments.Figure2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Figure2(s)
	}
	b.ReportMetric(res.SpecAvg*100, "spec_expansion_pct")
	b.ReportMetric(res.InteractAvg*100, "interactive_expansion_pct")
}

// BenchmarkFigure3 regenerates the trace-insertion-rate study.
func BenchmarkFigure3(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Figure3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure3(s)
	}
	var gcc float64
	for _, r := range rows {
		if r.Name == "gcc" {
			gcc = r.KBPerS
		}
	}
	b.ReportMetric(gcc, "gcc_KB_per_s")
}

// BenchmarkFigure4 regenerates the unmapped-memory study.
func BenchmarkFigure4(b *testing.B) {
	s := benchSuite(b)
	var res experiments.Figure4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Figure4(s)
	}
	b.ReportMetric(res.InteractAvg*100, "interactive_unmapped_pct")
}

// BenchmarkFigure6 regenerates the trace-lifetime study.
func BenchmarkFigure6(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Figure6Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure6(s)
	}
	var short, long float64
	for _, r := range rows {
		short += r.Short
		long += r.Long
	}
	n := float64(len(rows))
	b.ReportMetric(short/n*100, "avg_short_lived_pct")
	b.ReportMetric(long/n*100, "avg_long_lived_pct")
}

// BenchmarkFigure9 regenerates the miss-rate comparison (the headline
// experiment: three generational layouts vs the unified baseline).
func BenchmarkFigure9(b *testing.B) {
	s := benchSuite(b)
	var res experiments.Figure9Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure9(replaySuite(s, s.Parallel))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SpecAvg[1]*100, "spec_451045_reduction_pct")
	b.ReportMetric(res.InteractAvg[1]*100, "interactive_451045_reduction_pct")
}

// BenchmarkFigure9Parallel measures the worker-pool speedup of the replay
// matrix (compare ns/op between the sub-benchmarks; on a multi-core machine
// parallel=4 should be well over 2x faster) and asserts the typed rows stay
// identical to the sequential run at every level.
func BenchmarkFigure9Parallel(b *testing.B) {
	s := benchSuite(b)
	want, err := experiments.Figure9(replaySuite(s, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Figure9(replaySuite(s, parallel))
				if err != nil {
					b.Fatal(err)
				}
				if !reflect.DeepEqual(res, want) {
					b.Fatalf("parallel=%d rows differ from sequential rows", parallel)
				}
			}
		})
	}
}

// BenchmarkFigure10 regenerates the absolute eliminated-miss counts.
func BenchmarkFigure10(b *testing.B) {
	s := benchSuite(b)
	var res experiments.Figure9Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure9(replaySuite(s, s.Parallel))
		if err != nil {
			b.Fatal(err)
		}
	}
	var eliminated int64
	for _, r := range res.Rows {
		eliminated += r.Eliminated[1]
	}
	b.ReportMetric(float64(eliminated), "total_misses_eliminated")
}

// BenchmarkTable2 regenerates the overhead model and its worked example.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	b.ReportMetric(rows[0].AtMedianTrace, "tracegen_242B_instructions")
	b.ReportMetric(rows[len(rows)-1].AtMedianTrace, "misscost_242B_instructions")
}

// BenchmarkFigure11 regenerates the instruction-overhead-ratio study.
func BenchmarkFigure11(b *testing.B) {
	s := benchSuite(b)
	var res experiments.Figure11Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure11(replaySuite(s, s.Parallel))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeoMean*100, "overhead_ratio_geomean_pct")
}

// BenchmarkSweep regenerates the §6.1 configuration sweep on a subset.
func BenchmarkSweep(b *testing.B) {
	s, err := experiments.Collect(experiments.Options{
		Scale:      benchScale,
		Benchmarks: []string{"gzip", "gcc", "solitaire", "word"},
	})
	if err != nil {
		b.Fatal(err)
	}
	var res experiments.SweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Sweep(replaySuite(s, s.Parallel))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Best.AvgReduction*100, "best_config_reduction_pct")
}

// BenchmarkAblationNoProbation etc. regenerate the design-choice ablations
// DESIGN.md calls out.
func BenchmarkAblations(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Ablations(replaySuite(s, s.Parallel))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "no-probation" {
			b.ReportMetric(r.AvgReduction*100, "no_probation_reduction_pct")
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core data structures.

// BenchmarkArenaInsertEvict measures the pseudo-circular sweep under steady
// eviction pressure.
func BenchmarkArenaInsertEvict(b *testing.B) {
	a := codecache.New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := codecache.Fragment{ID: uint64(i + 1), Size: uint64(128 + i%512)}
		if err := a.Insert(f, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaAccess measures the hot path: a resident-trace access.
func BenchmarkArenaAccess(b *testing.B) {
	a := codecache.New(1 << 20)
	for id := uint64(1); id <= 1000; id++ {
		if err := a.Insert(codecache.Fragment{ID: id, Size: 512}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(uint64(i%1000) + 1)
	}
}

// BenchmarkGenerationalInsert measures Figure 8's full promotion chain.
func BenchmarkGenerationalInsert(b *testing.B) {
	g, err := core.NewGraph(core.Layout451045Threshold1(1<<20), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := codecache.Fragment{ID: uint64(i + 1), Size: uint64(128 + i%512)}
		if err := g.Insert(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures raw event-replay throughput.
func BenchmarkReplay(b *testing.B) {
	var events []tracelog.Event
	t := uint64(0)
	for id := uint64(1); id <= 500; id++ {
		t++
		events = append(events, tracelog.Event{Kind: tracelog.KindCreate, Time: t, Trace: id, Size: 256})
	}
	for round := 0; round < 100; round++ {
		for id := uint64(1); id <= 500; id++ {
			t++
			events = append(events, tracelog.Event{Kind: tracelog.KindAccess, Time: t, Trace: id})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplayUnified("bench", events, 64<<10, costmodel.DefaultModel); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(events)))
}

// BenchmarkEngineRun measures full engine throughput on a synthetic
// workload (guest blocks per second).
func BenchmarkEngineRun(b *testing.B) {
	profile, _ := repro.BenchmarkByName("gzip")
	profile = profile.Scaled(benchScale)
	bench, err := repro.Synthesize(profile)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr := repro.NewUnified(1<<40, nil)
		eng, err := repro.NewEngine(bench.Image, repro.EngineConfig{Manager: mgr})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(bench.NewDriver(), 0); err != nil {
			b.Fatal(err)
		}
	}
}
