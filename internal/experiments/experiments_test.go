package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// testSuite collects a small, fast subset once for all experiment tests.
var cachedSuite *Suite

func getSuite(t *testing.T) *Suite {
	t.Helper()
	if cachedSuite != nil {
		return cachedSuite
	}
	s, err := Collect(Options{
		Scale:      0.05,
		Benchmarks: []string{"art", "gzip", "gcc", "solitaire", "word"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedSuite = s
	return s
}

func TestCollectErrors(t *testing.T) {
	if _, err := Collect(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCollectBasics(t *testing.T) {
	s := getSuite(t)
	if len(s.Runs) != 5 {
		t.Fatalf("runs = %d", len(s.Runs))
	}
	if _, ok := s.Get("gzip"); !ok {
		t.Error("Get(gzip) failed")
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
	if len(s.SpecRuns()) != 3 || len(s.InteractiveRuns()) != 2 {
		t.Errorf("suite split: %d spec, %d interactive", len(s.SpecRuns()), len(s.InteractiveRuns()))
	}
	for _, r := range s.Runs {
		if r.MaxTraceBytes() == 0 {
			t.Errorf("%s: no live trace bytes", r.Profile.Name)
		}
		if len(r.Events) == 0 {
			t.Errorf("%s: no events", r.Profile.Name)
		}
		if r.Stats.Misses != 0 {
			t.Errorf("%s: unbounded run had misses", r.Profile.Name)
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	text := RenderTable1(rows)
	for _, want := range []string{"word", "212", "Word Processor", "acroread", "376"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, text)
		}
	}
}

func TestFigure1(t *testing.T) {
	s := getSuite(t)
	res := Figure1(s)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.LargestSpec != "gcc" {
		t.Errorf("largest SPEC cache = %s, want gcc", res.LargestSpec)
	}
	if res.LargestInteract != "word" {
		t.Errorf("largest interactive cache = %s, want word", res.LargestInteract)
	}
	if res.InteractAvgKB <= res.SpecAvgKB {
		t.Errorf("interactive avg %.0f <= spec avg %.0f", res.InteractAvgKB, res.SpecAvgKB)
	}
	// word's rescaled cache should be within 2x of the paper's 34.2 MB.
	for _, r := range res.Rows {
		if r.Name == "word" {
			if r.TraceKB < 17000 || r.TraceKB > 70000 {
				t.Errorf("word cache = %.0f KB, paper says 34,200", r.TraceKB)
			}
		}
	}
	if RenderFigure1(res) == "" {
		t.Error("empty render")
	}
}

func TestFigure2(t *testing.T) {
	s := getSuite(t)
	res := Figure2(s)
	// Expansion should be in the vicinity of 500% for both suites.
	if res.SpecAvg < 2.5 || res.SpecAvg > 9 {
		t.Errorf("spec expansion avg = %.1f", res.SpecAvg)
	}
	if res.InteractAvg < 2.5 || res.InteractAvg > 9 {
		t.Errorf("interactive expansion avg = %.1f", res.InteractAvg)
	}
	if RenderFigure2(res) == "" {
		t.Error("empty render")
	}
}

func TestFigure3(t *testing.T) {
	s := getSuite(t)
	rows := Figure3(s)
	rates := map[string]float64{}
	for _, r := range rows {
		rates[r.Name] = r.KBPerS
	}
	// gcc is the paper's outlier at 232 KB/s; it must dwarf gzip.
	if rates["gcc"] < 10*rates["gzip"] {
		t.Errorf("gcc rate %.1f not >> gzip rate %.1f", rates["gcc"], rates["gzip"])
	}
	if RenderFigure3(rows) == "" {
		t.Error("empty render")
	}
}

func TestFigure4(t *testing.T) {
	s := getSuite(t)
	res := Figure4(s)
	for _, r := range res.Rows {
		isSpec := r.Suite != workload.SuiteInteractive
		if isSpec && r.Unmapped != 0 {
			t.Errorf("%s (SPEC) has unmapped traces", r.Name)
		}
	}
	if res.InteractAvg <= 0.02 || res.InteractAvg > 0.5 {
		t.Errorf("interactive unmap avg = %v, paper says ~15%%", res.InteractAvg)
	}
	if RenderFigure4(res) == "" {
		t.Error("empty render")
	}
}

func TestFigure6(t *testing.T) {
	s := getSuite(t)
	rows := Figure6(s)
	for _, r := range rows {
		if r.Short+r.Long <= r.Mid {
			t.Errorf("%s lifetimes not U-shaped: %.2f/%.2f/%.2f", r.Name, r.Short, r.Mid, r.Long)
		}
		sum := 0.0
		for _, b := range r.Buckets {
			sum += b
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s buckets sum to %v", r.Name, sum)
		}
	}
	if RenderFigure6(rows) == "" {
		t.Error("empty render")
	}
}

func TestFigure9And10(t *testing.T) {
	s := getSuite(t)
	res, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Configs) != 3 {
		t.Fatalf("rows = %d configs = %v", len(res.Rows), res.Configs)
	}
	// The paper's best layout (45-10-45 @1, index 1) must show a positive
	// average miss-rate reduction for the interactive suite.
	if res.InteractAvg[1] <= 0 {
		t.Errorf("45-10-45@1 interactive avg reduction = %v", res.InteractAvg[1])
	}
	for _, r := range res.Rows {
		if r.UnifiedMisses == 0 {
			t.Errorf("%s: no unified misses at half capacity", r.Name)
		}
		// word and gcc must individually benefit.
		if (r.Name == "word" || r.Name == "gcc") && r.Reductions[1] <= 0 {
			t.Errorf("%s reduction = %v", r.Name, r.Reductions[1])
		}
	}
	if RenderFigure9(res) == "" || RenderFigure10(res) == "" {
		t.Error("empty render")
	}
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AtMedianTrace < 69000 || rows[0].AtMedianTrace > 71000 {
		t.Errorf("trace gen at 242B = %v, paper says 69,834", rows[0].AtMedianTrace)
	}
	text := RenderTable2(rows)
	if !strings.Contains(text, "865") || !strings.Contains(text, "8030") {
		t.Errorf("Table 2 missing formula constants:\n%s", text)
	}
}

func TestFigure11(t *testing.T) {
	s := getSuite(t)
	res, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// word must land below 100% (an overhead win).
	for _, r := range res.Rows {
		if r.Name == "word" && r.Ratio >= 1 {
			t.Errorf("word overhead ratio = %v", r.Ratio)
		}
		if r.Ratio <= 0 {
			t.Errorf("%s ratio = %v", r.Name, r.Ratio)
		}
	}
	if res.GeoMean <= 0 || res.GeoMean > 1.5 {
		t.Errorf("geomean = %v", res.GeoMean)
	}
	if RenderFigure11(res) == "" {
		t.Error("empty render")
	}
}

func TestSweepAndLink(t *testing.T) {
	// Use a smaller subset: the sweep is 28 configs per benchmark.
	s, err := Collect(Options{Scale: 0.05, Benchmarks: []string{"gzip", "solitaire"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 28 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Best.AvgReduction <= 0 {
		t.Errorf("best sweep point %s has reduction %v", res.Best.Label(), res.Best.AvgReduction)
	}
	links := ProbationThresholdLink(res)
	if len(links) == 0 {
		t.Fatal("no probation links")
	}
	// The paper's observed interaction: the smallest probation cache must
	// prefer a lower threshold than its worst threshold.
	for _, l := range links {
		if l.ProbationFrac == 0.10 && l.BestThreshold > l.WorstThreshold {
			t.Errorf("10%% probation prefers threshold %d over %d", l.BestThreshold, l.WorstThreshold)
		}
	}
	if RenderSweep(res) == "" {
		t.Error("empty render")
	}
}

func TestAblations(t *testing.T) {
	s := getSuite(t)
	rows, err := Ablations(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.AvgReduction
	}
	if byName["45-10-45@1 (paper)"] <= 0 {
		t.Errorf("paper design reduction = %v", byName["45-10-45@1 (paper)"])
	}
	if RenderAblations(rows) == "" {
		t.Error("empty render")
	}
}

func TestCycleImpact(t *testing.T) {
	s := getSuite(t)
	fig9, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := CycleImpact(s, fig9)
	if len(rows) != len(fig9.Rows) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Name == "word" && r.ReductionPct <= 0 {
			t.Errorf("word cycle reduction = %v", r.ReductionPct)
		}
		if r.ReductionPct > 50 {
			t.Errorf("%s cycle reduction implausible: %v%%", r.Name, r.ReductionPct)
		}
	}
	if RenderCycleImpact(rows) == "" {
		t.Error("empty render")
	}
}

func TestCapacitySweep(t *testing.T) {
	s := getSuite(t)
	points, err := CapacitySweep(s, []float64{0.25, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Miss rates must fall as capacity grows, for both schemes.
	for i := 1; i < len(points); i++ {
		if points[i].UnifiedMissRate > points[i-1].UnifiedMissRate {
			t.Errorf("unified miss rate rose with capacity: %+v", points)
		}
		if points[i].GenMissRate > points[i-1].GenMissRate {
			t.Errorf("generational miss rate rose with capacity: %+v", points)
		}
	}
	// At the paper's operating point the generational scheme must win.
	if points[1].AvgReduction <= 0 {
		t.Errorf("no advantage at 50%% capacity: %+v", points[1])
	}
	if RenderCapacitySweep(points) == "" {
		t.Error("empty render")
	}
}

func TestOptimizerImpact(t *testing.T) {
	rows, err := OptimizerImpact([]string{"gzip", "solitaire"}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TraceBytesOpt > r.TraceBytes {
			t.Errorf("%s: optimizer grew traces (%d -> %d)", r.Name, r.TraceBytes, r.TraceBytesOpt)
		}
		if r.BytesSavedPct < 0 {
			t.Errorf("%s: negative savings %v", r.Name, r.BytesSavedPct)
		}
		if r.OptimizedInsts == 0 {
			t.Errorf("%s: optimizer touched nothing", r.Name)
		}
	}
	if _, err := OptimizerImpact([]string{"nope"}, 0.05); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if RenderOptimizerImpact(rows) == "" {
		t.Error("empty render")
	}
}

func TestSeedOffsetChangesWorkloadNotConclusion(t *testing.T) {
	// A different seed must change the raw event stream but preserve the
	// headline conclusion (generational wins on a big interactive log).
	a, err := Collect(Options{Scale: 0.05, Benchmarks: []string{"word"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(Options{Scale: 0.05, Benchmarks: []string{"word"}, SeedOffset: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Get("word")
	rb, _ := b.Get("word")
	if len(ra.Events) == len(rb.Events) && ra.Stats.TraceBytes == rb.Stats.TraceBytes {
		t.Error("seed offset changed nothing")
	}
	for _, s := range []*Suite{a, b} {
		res, err := Figure9(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0].Reductions[1] <= 0 {
			t.Errorf("word reduction with suite %p = %v", s, res.Rows[0].Reductions[1])
		}
	}
}

func TestMedianTraceSizeNearPaper(t *testing.T) {
	s := getSuite(t)
	res := Figure1(s)
	// The paper reports a 242-byte median trace across all benchmarks; the
	// synthetic traces must land in the same regime.
	if res.MedianTraceBytes < 120 || res.MedianTraceBytes > 700 {
		t.Errorf("median trace = %.0f B, paper says 242 B", res.MedianTraceBytes)
	}
}

func TestRobustness(t *testing.T) {
	res, err := Robustness([]string{"gcc", "solitaire"}, 0.05, []int64{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.AllWin {
		t.Errorf("headline failed on some seed: %+v", res.Points)
	}
	if res.Mean <= 0 {
		t.Errorf("mean reduction = %v", res.Mean)
	}
	if RenderRobustness(res) == "" {
		t.Error("empty render")
	}
}
