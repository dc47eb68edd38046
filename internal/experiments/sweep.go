package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
)

// The §6.1 configuration-space sweep: the paper swept generational cache
// proportions and promotion thresholds, observing (a) no universally best
// unbalanced nursery/persistent sizing and (b) an undeniable link between
// probation size and promotion threshold — small probation caches need low
// thresholds or long-lived traces are evicted before qualifying.

// SweepPoint is one configuration's average miss-rate reduction.
type SweepPoint struct {
	Nursery, Probation, Persistent float64
	Threshold                      uint64
	PromoteOnAccess                bool
	AvgReduction                   float64 // unweighted mean over benchmarks
}

// Label renders the configuration compactly.
func (p SweepPoint) Label() string {
	return fmt.Sprintf("%.0f-%.0f-%.0f@%d", p.Nursery*100, p.Probation*100, p.Persistent*100, p.Threshold)
}

// SweepResult holds the grid.
type SweepResult struct {
	Points []SweepPoint
	Best   SweepPoint
}

// sweepGrid returns the explored layouts: balanced and unbalanced
// proportions crossed with promotion thresholds.
func sweepGrid() []core.Config {
	type shape struct{ n, p, s float64 }
	shapes := []shape{
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
		{0.45, 0.10, 0.45},
		{0.10, 0.45, 0.45},
		{0.45, 0.45, 0.10},
		{0.25, 0.50, 0.25},
		{0.60, 0.10, 0.30},
		{0.30, 0.10, 0.60},
	}
	thresholds := []uint64{1, 5, 10, 50}
	var out []core.Config
	for _, sh := range shapes {
		for _, th := range thresholds {
			out = append(out, core.Config{
				NurseryFrac:      sh.n,
				ProbationFrac:    sh.p,
				PersistentFrac:   sh.s,
				PromoteThreshold: th,
				PromoteOnAccess:  th == 1,
			})
		}
	}
	return out
}

// Sweep replays every benchmark's log through the configuration grid and
// averages the miss-rate reductions over the logs whose baseline misses.
// Each benchmark's 29 replays are one pipeline job; sums aggregate in
// benchmark order.
func Sweep(s *Suite) (SweepResult, error) {
	grid := sweepGrid()
	m, err := replayMatrix(s, halfPeak, noGraph, func(capacity uint64) []core.GraphSpec {
		var specs []core.GraphSpec
		for _, cfg := range grid {
			cfg.TotalCapacity = capacity
			specs = append(specs, cfg.GraphSpec())
		}
		return withBaseline(capacity, specs...)
	}, reductionsVsBaseline)
	if err != nil {
		return SweepResult{}, err
	}
	avgs := means(m[0], len(grid))
	var res SweepResult
	for i, cfg := range grid {
		pt := SweepPoint{
			Nursery: cfg.NurseryFrac, Probation: cfg.ProbationFrac, Persistent: cfg.PersistentFrac,
			Threshold: cfg.PromoteThreshold, PromoteOnAccess: cfg.PromoteOnAccess,
			AvgReduction: avgs[i],
		}
		res.Points = append(res.Points, pt)
		if i == 0 || pt.AvgReduction > res.Best.AvgReduction {
			res.Best = pt
		}
	}
	return res, nil
}

// reductionsVsBaseline is the row of the studies that average reductions
// over the logs whose baseline misses: each spec's miss-rate reduction
// against spec 0, the unified baseline. A log whose baseline never misses
// has nothing to reduce and gets no row.
func reductionsVsBaseline(c replayed) ([]float64, bool) {
	if c.res[0].MissRate() == 0 {
		return nil, false
	}
	reds := make([]float64, len(c.res)-1)
	for i := range reds {
		reds[i] = c.vs(i + 1).MissRateReduction()
	}
	return reds, true
}

// RenderSweep renders the sweep grid as text.
func RenderSweep(res SweepResult) string {
	t := stats.NewTable("Layout", "Threshold", "AvgMissRateReduction")
	for _, p := range res.Points {
		t.AddRow(fmt.Sprintf("%.0f-%.0f-%.0f", p.Nursery*100, p.Probation*100, p.Persistent*100),
			fmt.Sprintf("%d", p.Threshold), fmt.Sprintf("%+.1f%%", p.AvgReduction*100))
	}
	t.AddRow("(best)", res.Best.Label(), fmt.Sprintf("%+.1f%%", res.Best.AvgReduction*100))
	return t.String()
}

// ProbationLink quantifies the paper's §6.1 observation: for each probation
// size, the best threshold; small probation caches should prefer small
// thresholds.
type ProbationLink struct {
	ProbationFrac  float64
	BestThreshold  uint64
	AvgAtBest      float64
	AvgAtWorst     float64
	WorstThreshold uint64
}

// ProbationThresholdLink derives the interaction from a completed sweep.
// Links are returned in ascending probation-fraction order so the rendered
// report is deterministic (map iteration order is not).
func ProbationThresholdLink(res SweepResult) []ProbationLink {
	byProb := map[float64][]SweepPoint{}
	var fracs []float64
	for _, p := range res.Points {
		if _, seen := byProb[p.Probation]; !seen {
			fracs = append(fracs, p.Probation)
		}
		byProb[p.Probation] = append(byProb[p.Probation], p)
	}
	sort.Float64s(fracs)
	var out []ProbationLink
	for _, frac := range fracs {
		link := ProbationLink{ProbationFrac: frac}
		for i, p := range byProb[frac] {
			if i == 0 || p.AvgReduction > link.AvgAtBest {
				link.AvgAtBest = p.AvgReduction
				link.BestThreshold = p.Threshold
			}
			if i == 0 || p.AvgReduction < link.AvgAtWorst {
				link.AvgAtWorst = p.AvgReduction
				link.WorstThreshold = p.Threshold
			}
		}
		out = append(out, link)
	}
	return out
}

// ---------------------------------------------------------------------------
// Ablations (design choices DESIGN.md calls out)

// AblationRow compares one design variant against the paper's 45-10-45@1
// design on average miss-rate reduction over the unified baseline.
type AblationRow struct {
	Name         string
	AvgReduction float64
}

// Ablations evaluates:
//   - paper: the 45-10-45 @1 design;
//   - no-probation: nursery victims promote straight to the persistent
//     cache (threshold 0 through a vestigial probation buffer);
//   - lru-local: the paper's layout but with LRU as every cache's local
//     policy (left as future work in §5);
//   - flush-unified: a unified cache that flushes when full (Dynamo-style
//     management), as a second baseline;
//   - holefill-unified: the §4.3 road not taken, a unified cache that fills
//     program-forced holes before evicting at the cursor.
func Ablations(s *Suite) ([]AblationRow, error) {
	variants := []struct {
		name string
		spec func(capacity uint64) core.GraphSpec
	}{
		{"45-10-45@1 (paper)", func(c uint64) core.GraphSpec {
			return core.Layout451045Threshold1(c).GraphSpec()
		}},
		{"no-probation", func(c uint64) core.GraphSpec {
			return core.Config{
				TotalCapacity: c,
				NurseryFrac:   0.47, ProbationFrac: 0.03, PersistentFrac: 0.50,
				PromoteThreshold: 0, // every probation victim promotes
			}.GraphSpec()
		}},
		{"lru-local", func(c uint64) core.GraphSpec {
			cfg := core.Layout451045Threshold1(c)
			cfg.Local = func(core.Level) policy.Local { return policy.NewLRU() }
			return cfg.GraphSpec()
		}},
		{"flush-unified", func(c uint64) core.GraphSpec {
			return core.UnifiedSpec(c, &policy.FlushWhenFull{})
		}},
		{"holefill-unified", func(c uint64) core.GraphSpec {
			return core.UnifiedSpec(c, &policy.CircularFirstFit{})
		}},
	}
	m, err := replayMatrix(s, halfPeak, noGraph, func(capacity uint64) []core.GraphSpec {
		specs := make([]core.GraphSpec, len(variants))
		for i, v := range variants {
			specs[i] = v.spec(capacity)
		}
		return withBaseline(capacity, specs...)
	}, reductionsVsBaseline)
	if err != nil {
		return nil, err
	}
	avgs := means(m[0], len(variants))
	var out []AblationRow
	for i, v := range variants {
		out = append(out, AblationRow{Name: v.name, AvgReduction: avgs[i]})
	}
	return out, nil
}

// RenderAblations renders the ablation table as text.
func RenderAblations(rows []AblationRow) string {
	t := stats.NewTable("Variant", "AvgMissRateReduction")
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%+.1f%%", r.AvgReduction*100))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Capacity sensitivity

// CapacityPoint is one cache-size point of the capacity sweep: average miss
// rates for the unified baseline and the 45-10-45 @1 generational layout
// when total capacity is CapFrac of each benchmark's unbounded footprint.
type CapacityPoint struct {
	CapFrac         float64
	UnifiedMissRate float64
	GenMissRate     float64
	AvgReduction    float64
}

// CapacitySweep maps out how the generational advantage depends on cache
// pressure. The paper evaluates only CapFrac = 0.5; the sweep shows the
// advantage shrinking as the cache approaches the unbounded footprint (no
// pressure, nothing to manage) and at very small caches (nothing fits
// anywhere).
func CapacitySweep(s *Suite, fracs []float64) ([]CapacityPoint, error) {
	if len(fracs) == 0 {
		fracs = []float64{0.25, 0.375, 0.5, 0.75, 0.9}
	}
	// A log whose baseline never misses keeps its row, with a reduction of 0.
	m, err := replayMatrix(s, fracs, noGraph, headline, func(c replayed) ([]float64, bool) {
		cmp := c.vs(1)
		return []float64{cmp.Unified.MissRate(), cmp.Generational.MissRate(), cmp.MissRateReduction()}, true
	})
	if err != nil {
		return nil, err
	}
	var out []CapacityPoint
	for fi, frac := range fracs {
		if len(m[fi]) == 0 {
			continue
		}
		avg := means(m[fi], 3)
		out = append(out, CapacityPoint{
			CapFrac:         frac,
			UnifiedMissRate: avg[0],
			GenMissRate:     avg[1],
			AvgReduction:    avg[2],
		})
	}
	return out, nil
}

// RenderCapacitySweep renders the sweep as text.
func RenderCapacitySweep(points []CapacityPoint) string {
	t := stats.NewTable("Capacity", "UnifiedMissRate", "GenMissRate", "AvgReduction")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.0f%% of maxCache", p.CapFrac*100),
			fmt.Sprintf("%.3f%%", p.UnifiedMissRate*100),
			fmt.Sprintf("%.3f%%", p.GenMissRate*100),
			fmt.Sprintf("%+.1f%%", p.AvgReduction*100))
	}
	return t.String()
}
