package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 1

// Table1Row is one interactive benchmark's description.
type Table1Row struct {
	Name        string
	Seconds     float64
	Description string
}

// Table1 reproduces the interactive-benchmark table.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, p := range workload.Interactive() {
		rows = append(rows, Table1Row{Name: p.Name, Seconds: p.DurationSec, Description: p.Description})
	}
	return rows
}

// RenderTable1 renders Table 1 as text.
func RenderTable1(rows []Table1Row) string {
	t := stats.NewTable("Name", "Seconds", "Description")
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.0f", r.Seconds), r.Description)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 1: maximum code cache size under an unbounded cache

// Figure1Row is one benchmark's unbounded cache sizes (rescaled to full
// size).
type Figure1Row struct {
	Name    string
	Suite   workload.Suite
	TraceKB float64 // peak live trace-cache bytes (the paper's Figure 1 bar)
	TotalKB float64 // basic-block + trace cache peak
}

// Figure1Result aggregates the figure.
type Figure1Result struct {
	Rows            []Figure1Row
	SpecAvgKB       float64 // paper: ~736 KB
	InteractAvgKB   float64 // paper: ~16.1 MB = ~16500 KB
	LargestSpec     string  // paper: gcc (4.3 MB)
	LargestInteract string  // paper: word (34.2 MB)
	// MedianTraceBytes is the median trace size across every benchmark;
	// the paper reports 242 bytes (§6.2).
	MedianTraceBytes float64
}

// Figure1 reproduces the unbounded cache-size study (§3.1).
func Figure1(s *Suite) Figure1Result {
	var res Figure1Result
	var specSum, interSum float64
	var nSpec, nInter int
	var maxSpec, maxInter float64
	for _, r := range s.Runs {
		row := Figure1Row{
			Name:    r.Profile.Name,
			Suite:   r.Profile.Suite,
			TraceKB: s.rescale(float64(r.MaxTraceBytes())) / 1024,
			TotalKB: s.rescale(float64(r.Stats.PeakCacheBytes)) / 1024,
		}
		res.Rows = append(res.Rows, row)
		if row.Suite == workload.SuiteInteractive {
			interSum += row.TraceKB
			nInter++
			if row.TraceKB > maxInter {
				maxInter = row.TraceKB
				res.LargestInteract = row.Name
			}
		} else {
			specSum += row.TraceKB
			nSpec++
			if row.TraceKB > maxSpec {
				maxSpec = row.TraceKB
				res.LargestSpec = row.Name
			}
		}
	}
	if nSpec > 0 {
		res.SpecAvgKB = specSum / float64(nSpec)
	}
	if nInter > 0 {
		res.InteractAvgKB = interSum / float64(nInter)
	}
	var sizes []float64
	for _, r := range s.Runs {
		sizes = append(sizes, sizesOf(r.Summary.TraceSizes)...)
	}
	res.MedianTraceBytes = stats.Median(sizes)
	return res
}

// RenderFigure1 renders the figure as text.
func RenderFigure1(res Figure1Result) string {
	t := stats.NewTable("Benchmark", "Suite", "MaxTraceCache", "MaxTotalCache")
	for _, r := range res.Rows {
		t.AddRow(r.Name, r.Suite.String(),
			stats.FmtBytes(uint64(r.TraceKB*1024)), stats.FmtBytes(uint64(r.TotalKB*1024)))
	}
	t.AddRow("(spec avg)", "", stats.FmtBytes(uint64(res.SpecAvgKB*1024)), "")
	t.AddRow("(interactive avg)", "", stats.FmtBytes(uint64(res.InteractAvgKB*1024)), "")
	t.AddRow("(median trace)", "", fmt.Sprintf("%.0f B (paper: 242 B)", res.MedianTraceBytes), "")
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 2: code expansion

// Figure2Row is one benchmark's code-expansion factor (Equation 1).
type Figure2Row struct {
	Name      string
	Suite     workload.Suite
	Expansion float64 // finalCacheSize / applicationFootprint
}

// Figure2Result aggregates the figure.
type Figure2Result struct {
	Rows                     []Figure2Row
	SpecAvg, SpecStd         float64 // paper: ~5x, 111% stddev
	InteractAvg, InteractStd float64 // paper: ~5x, 59% stddev
}

// Figure2 reproduces the code-expansion study (§3.2, Equation 1).
func Figure2(s *Suite) Figure2Result {
	var res Figure2Result
	var spec, inter []float64
	for _, r := range s.Runs {
		exp := float64(r.Stats.PeakCacheBytes) / float64(r.Footprint)
		res.Rows = append(res.Rows, Figure2Row{Name: r.Profile.Name, Suite: r.Profile.Suite, Expansion: exp})
		if r.Profile.Suite == workload.SuiteInteractive {
			inter = append(inter, exp)
		} else {
			spec = append(spec, exp)
		}
	}
	res.SpecAvg, res.SpecStd = stats.Mean(spec), stats.StdDev(spec)
	res.InteractAvg, res.InteractStd = stats.Mean(inter), stats.StdDev(inter)
	return res
}

// RenderFigure2 renders the figure as text.
func RenderFigure2(res Figure2Result) string {
	t := stats.NewTable("Benchmark", "Suite", "Expansion")
	for _, r := range res.Rows {
		t.AddRow(r.Name, r.Suite.String(), fmt.Sprintf("%.0f%%", r.Expansion*100))
	}
	t.AddRow("(spec avg)", "", fmt.Sprintf("%.0f%% ± %.0f%%", res.SpecAvg*100, res.SpecStd*100))
	t.AddRow("(interactive avg)", "", fmt.Sprintf("%.0f%% ± %.0f%%", res.InteractAvg*100, res.InteractStd*100))
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 3: trace insertion rate

// Figure3Row is one benchmark's trace-insertion rate.
type Figure3Row struct {
	Name   string
	Suite  workload.Suite
	KBPerS float64
}

// Figure3 reproduces the trace-generation-frequency study (§3.3). Rates are
// rescaled to full size.
func Figure3(s *Suite) []Figure3Row {
	var rows []Figure3Row
	for _, r := range s.Runs {
		rate := s.rescale(float64(r.Stats.TraceBytes)) / 1024 / r.Profile.DurationSec
		rows = append(rows, Figure3Row{Name: r.Profile.Name, Suite: r.Profile.Suite, KBPerS: rate})
	}
	return rows
}

// RenderFigure3 renders the figure as text.
func RenderFigure3(rows []Figure3Row) string {
	t := stats.NewTable("Benchmark", "Suite", "TraceInsertRate")
	for _, r := range rows {
		t.AddRow(r.Name, r.Suite.String(), fmt.Sprintf("%.1f KB/s", r.KBPerS))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 4: unmapped-memory deletions

// Figure4Row is one benchmark's share of trace bytes deleted because their
// module was unmapped.
type Figure4Row struct {
	Name     string
	Suite    workload.Suite
	Unmapped float64 // fraction of created trace bytes
}

// Figure4Result aggregates the figure.
type Figure4Result struct {
	Rows        []Figure4Row
	InteractAvg float64 // paper: ~15%
}

// Figure4 reproduces the unmapped-memory study (§3.4).
func Figure4(s *Suite) Figure4Result {
	var res Figure4Result
	var inter []float64
	for _, r := range s.Runs {
		frac := 0.0
		if r.Stats.TraceBytes > 0 {
			frac = float64(r.Stats.UnmappedBytes) / float64(r.Stats.TraceBytes)
		}
		res.Rows = append(res.Rows, Figure4Row{Name: r.Profile.Name, Suite: r.Profile.Suite, Unmapped: frac})
		if r.Profile.Suite == workload.SuiteInteractive {
			inter = append(inter, frac)
		}
	}
	res.InteractAvg = stats.Mean(inter)
	return res
}

// RenderFigure4 renders the figure as text.
func RenderFigure4(res Figure4Result) string {
	t := stats.NewTable("Benchmark", "Suite", "UnmappedTraces")
	for _, r := range res.Rows {
		t.AddRow(r.Name, r.Suite.String(), stats.FmtPct(r.Unmapped))
	}
	t.AddRow("(interactive avg)", "", stats.FmtPct(res.InteractAvg))
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 6: trace lifetimes

// Figure6Row is one benchmark's lifetime distribution (Equation 2).
type Figure6Row struct {
	Name    string
	Suite   workload.Suite
	Short   float64 // lifetime < 20% of execution
	Mid     float64
	Long    float64   // lifetime > 80% of execution
	Buckets []float64 // ten 10%-wide buckets
}

// Figure6 reproduces the trace-lifetime study (§5.1).
func Figure6(s *Suite) []Figure6Row {
	var rows []Figure6Row
	for _, r := range s.Runs {
		total := float64(r.Stats.EndTime)
		short, mid, long := r.Lifetimes.Fractions(total, 0.2, 0.8)
		h := r.Lifetimes.Histogram(total, 10)
		buckets := make([]float64, 10)
		for i := range buckets {
			buckets[i] = h.Fraction(i)
		}
		rows = append(rows, Figure6Row{
			Name: r.Profile.Name, Suite: r.Profile.Suite,
			Short: short, Mid: mid, Long: long, Buckets: buckets,
		})
	}
	return rows
}

// RenderFigure6 renders the figure as text.
func RenderFigure6(rows []Figure6Row) string {
	t := stats.NewTable("Benchmark", "Suite", "<20%", "20-80%", ">80%")
	for _, r := range rows {
		t.AddRow(r.Name, r.Suite.String(), stats.FmtPct(r.Short), stats.FmtPct(r.Mid), stats.FmtPct(r.Long))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figures 9 and 10: generational vs unified miss rates

// figure9Layouts returns the layouts Figure 9 evaluates, in the paper's
// order, over capacity.
func figure9Layouts(capacity uint64) []core.GraphSpec {
	return []core.GraphSpec{
		core.Layout433Threshold10(capacity),
		core.Layout451045Threshold1(capacity),
		core.Layout104545Threshold10(capacity),
	}
}

// Figure9Row is one benchmark's miss-rate comparison. Reductions are
// 1 - generational/unified miss rate; positive is better.
type Figure9Row struct {
	Name            string
	Suite           workload.Suite
	CapacityKB      float64 // simulated total capacity (0.5 x maxCache), at scale
	UnifiedMissRate float64
	UnifiedMisses   uint64
	// UnifiedOverhead is the unified baseline's Table 2 cost in
	// instructions; §6.2's cycle impact weighs eliminated misses against it.
	UnifiedOverhead float64
	Reductions      []float64 // one per layout, Figure 9 bar heights
	Eliminated      []int64   // absolute misses eliminated (Figure 10)
	Configs         []string
}

// Figure9Result aggregates the figure.
type Figure9Result struct {
	Rows []Figure9Row
	// Averages holds the unweighted arithmetic mean reduction per layout,
	// split by suite, matching the paper's "Average" bars.
	SpecAvg     []float64
	InteractAvg []float64
	Configs     []string
}

// Figure9 reproduces the miss-rate evaluation (§6.1): each benchmark's log
// replays through a unified pseudo-circular cache sized at half its
// unbounded footprint, and through the three generational layouts of the
// same total capacity. A log whose baseline never misses keeps its row,
// with reductions of 0. Rows and averages are in benchmark order regardless
// of parallelism.
func Figure9(s *Suite) (Figure9Result, error) {
	m, err := replayMatrix(s, halfPeak, noGraph, func(capacity uint64) []core.GraphSpec {
		return withBaseline(capacity, figure9Layouts(capacity)...)
	}, func(c replayed) (Figure9Row, bool) {
		u := c.res[0]
		row := Figure9Row{
			Name:            c.run.Profile.Name,
			Suite:           c.run.Profile.Suite,
			CapacityKB:      float64(c.capacity) / 1024,
			UnifiedMissRate: u.MissRate(),
			UnifiedMisses:   u.Misses,
			UnifiedOverhead: u.Overhead.Total(),
		}
		for i, spec := range figure9Layouts(c.capacity) {
			cmp := c.vs(i + 1)
			row.Reductions = append(row.Reductions, cmp.MissRateReduction())
			row.Eliminated = append(row.Eliminated, cmp.MissesEliminated())
			row.Configs = append(row.Configs, layoutLabel(spec))
		}
		return row, true
	})
	if err != nil {
		return Figure9Result{}, err
	}
	res := Figure9Result{Rows: m[0]}
	if len(res.Rows) == 0 {
		return res, nil
	}
	var spec, inter [][]float64
	for _, row := range res.Rows {
		if row.Suite == workload.SuiteInteractive {
			inter = append(inter, row.Reductions)
		} else {
			spec = append(spec, row.Reductions)
		}
	}
	res.Configs = res.Rows[0].Configs
	res.SpecAvg = means(spec, len(res.Configs))
	res.InteractAvg = means(inter, len(res.Configs))
	return res, nil
}

// layoutLabel names a three-tier layout by its percentages and probation
// threshold: "45-10-45@1".
func layoutLabel(spec core.GraphSpec) string {
	t := spec.Tiers
	return fmt.Sprintf("%.0f-%.0f-%.0f@%d", t[0].Frac*100, t[1].Frac*100, t[2].Frac*100, t[1].Threshold)
}

// RenderFigure9 renders the figure as text.
func RenderFigure9(res Figure9Result) string {
	header := []string{"Benchmark", "Suite", "UnifiedMissRate"}
	header = append(header, res.Configs...)
	t := stats.NewTable(header...)
	for _, r := range res.Rows {
		cells := []string{r.Name, r.Suite.String(), fmt.Sprintf("%.3f%%", r.UnifiedMissRate*100)}
		for _, red := range r.Reductions {
			cells = append(cells, fmt.Sprintf("%+.1f%%", red*100))
		}
		t.AddRow(cells...)
	}
	avgRow := func(label string, avgs []float64) {
		cells := []string{label, "", ""}
		for _, v := range avgs {
			cells = append(cells, fmt.Sprintf("%+.1f%%", v*100))
		}
		t.AddRow(cells...)
	}
	avgRow("(spec avg)", res.SpecAvg)
	avgRow("(interactive avg)", res.InteractAvg)
	return t.String()
}

// RenderFigure10 renders the absolute eliminated-miss counts (Figure 10)
// for the paper's best layout (45-10-45 @1, index 1).
func RenderFigure10(res Figure9Result) string {
	t := stats.NewTable("Benchmark", "Suite", "UnifiedMisses", "MissesEliminated(45-10-45@1)")
	for _, r := range res.Rows {
		t.AddRow(r.Name, r.Suite.String(),
			stats.FmtCount(r.UnifiedMisses), fmt.Sprintf("%d", r.Eliminated[1]))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 2: overhead model

// Table2Row is one overhead formula with its cost at the median trace size.
type Table2Row struct {
	Event         string
	Formula       string
	AtMedianTrace float64
}

// Table2 reproduces the overhead table with the worked example of §6.2.
func Table2() []Table2Row {
	m := costmodel.DefaultModel
	return []Table2Row{
		{"Trace Generation", fmt.Sprintf("%.0f * size^%.1f", m.GenCoeff, m.GenExp), m.TraceGen(costmodel.MedianTraceBytes)},
		{"DR Context Switch", fmt.Sprintf("%.0f", m.ContextSwitch), m.ContextSwitch},
		{"Evictions", fmt.Sprintf("%.2f * size + %.0f", m.EvictCoeff, m.EvictConst), m.Evict(costmodel.MedianTraceBytes)},
		{"Promotions", fmt.Sprintf("%.0f * size + %.0f", m.PromoteCoeff, m.PromoteConst), m.Promote(costmodel.MedianTraceBytes)},
		{"Conflict Miss (total)", "2*switch + gen + promote", m.MissCost(costmodel.MedianTraceBytes)},
	}
}

// RenderTable2 renders the table as text.
func RenderTable2(rows []Table2Row) string {
	t := stats.NewTable("Event", "Overhead (instructions)", "At 242-byte trace")
	for _, r := range rows {
		t.AddRow(r.Event, r.Formula, fmt.Sprintf("%.0f", r.AtMedianTrace))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 11: instruction-overhead ratio

// Figure11Row is one benchmark's overhead ratio (Equation 3) for the
// 45-10-45 @1 layout; below 100% is a win.
type Figure11Row struct {
	Name  string
	Suite workload.Suite
	Ratio float64
}

// Figure11Result aggregates the figure.
type Figure11Result struct {
	Rows            []Figure11Row
	GeoMean         float64 // paper: 80.7%
	SpecGeoMean     float64
	InteractGeoMean float64
	Worst           string // paper: applu (106.2%)
	Best            string // paper: gzip (51.1%)
}

// Figure11 reproduces the overhead evaluation (§6.2). The per-benchmark
// comparisons run on the suite's pipeline.
func Figure11(s *Suite) (Figure11Result, error) {
	m, err := replayMatrix(s, halfPeak, noGraph, headline, func(c replayed) (Figure11Row, bool) {
		return Figure11Row{Name: c.run.Profile.Name, Suite: c.run.Profile.Suite, Ratio: c.vs(1).OverheadRatio()}, true
	})
	var res Figure11Result
	if err != nil {
		return res, err
	}
	res.Rows = m[0]
	var ratios, specRatios, interRatios []float64
	best, worst := 10.0, 0.0
	for _, row := range res.Rows {
		ratio := row.Ratio
		ratios = append(ratios, ratio)
		if row.Suite == workload.SuiteInteractive {
			interRatios = append(interRatios, ratio)
		} else {
			specRatios = append(specRatios, ratio)
		}
		if ratio < best {
			best = ratio
			res.Best = row.Name
		}
		if ratio > worst {
			worst = ratio
			res.Worst = row.Name
		}
	}
	res.GeoMean = stats.GeoMean(ratios)
	res.SpecGeoMean = stats.GeoMean(specRatios)
	res.InteractGeoMean = stats.GeoMean(interRatios)
	return res, nil
}

// RenderFigure11 renders the figure as text.
func RenderFigure11(res Figure11Result) string {
	t := stats.NewTable("Benchmark", "Suite", "OverheadRatio")
	for _, r := range res.Rows {
		t.AddRow(r.Name, r.Suite.String(), fmt.Sprintf("%.1f%%", r.Ratio*100))
	}
	t.AddRow("(spec geomean)", "", fmt.Sprintf("%.1f%%", res.SpecGeoMean*100))
	t.AddRow("(interactive geomean)", "", fmt.Sprintf("%.1f%%", res.InteractGeoMean*100))
	t.AddRow("(geomean)", "", fmt.Sprintf("%.1f%%", res.GeoMean*100))
	return t.String()
}

// ---------------------------------------------------------------------------
// §6.2 cycle impact

// CycleImpactRow estimates the effect of the eliminated misses on overall
// execution cycles, as the paper's closing calculation does (gzip: 2,288
// misses eliminated => 0.07% of cycles; crafty: 292,486 => 8.09%). One
// guest instruction is one cycle; each eliminated miss saves its Table 2
// conflict-miss cost.
type CycleImpactRow struct {
	Name         string
	Suite        workload.Suite
	Eliminated   int64
	ReductionPct float64
}

// CycleImpact derives the estimate from a completed Figure 9 run (using the
// 45-10-45 @1 layout, index 1). Total cycles are the guest's instructions
// plus the unified configuration's management overhead, which Figure 9's
// baseline replay recorded; at compressed simulation scales the overhead
// share — and therefore these percentages — is much larger than the paper's
// full-length runs would show.
func CycleImpact(s *Suite, fig9 Figure9Result) []CycleImpactRow {
	var rows []CycleImpactRow
	for _, fr := range fig9.Rows {
		r, ok := s.Get(fr.Name)
		if !ok {
			continue
		}
		med := stats.Median(sizesOf(r.Summary.TraceSizes))
		saved := float64(fr.Eliminated[1]) * costmodel.DefaultModel.MissCost(int(med))
		total := float64(r.Stats.GuestInstrs) + fr.UnifiedOverhead
		pct := 0.0
		if total > 0 {
			pct = saved / total * 100
		}
		rows = append(rows, CycleImpactRow{
			Name: fr.Name, Suite: fr.Suite,
			Eliminated: fr.Eliminated[1], ReductionPct: pct,
		})
	}
	return rows
}

func sizesOf(in []uint32) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

// RenderCycleImpact renders the estimate as text.
func RenderCycleImpact(rows []CycleImpactRow) string {
	t := stats.NewTable("Benchmark", "Suite", "MissesEliminated", "EstCycleReduction")
	for _, r := range rows {
		t.AddRow(r.Name, r.Suite.String(), fmt.Sprintf("%d", r.Eliminated), fmt.Sprintf("%.2f%%", r.ReductionPct))
	}
	return t.String()
}
