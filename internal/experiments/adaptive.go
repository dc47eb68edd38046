package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// The adaptive-split experiment: the paper settles the nursery/probation/
// persistent proportions offline by sweeping Figure 9's layouts per
// benchmark. The adaptive controller instead starts from the neutral
// 33-33-33 split and re-balances capacity online from windowed eviction
// pressure. The experiment replays each benchmark's log through the three
// Figure 9 static layouts and through the adaptive graph, and checks the
// controller against two bars: it must beat the worst static layout (the
// cost of picking proportions blind) and land within tolerance of the best
// one (the value of tuning offline).

// AdaptiveTolerance is how close (relative) the adaptive miss rate must be
// to the best static layout's to count as matching it.
const AdaptiveTolerance = 0.05

// AdaptiveRow is one benchmark's static-vs-adaptive comparison.
type AdaptiveRow struct {
	Name    string
	Configs []string  // static layout labels, Figure 9 order
	Static  []float64 // miss rate per static layout
	// BestStatic/WorstStatic index Configs/Static.
	BestStatic  int
	WorstStatic int

	Adaptive float64 // adaptive graph's miss rate
	Resizes  uint64  // capacity shifts the controller applied
	Reverted uint64  // shifts it undid

	// BeatsWorst: adaptive < worst static. WithinBest: adaptive is within
	// AdaptiveTolerance (relative) of the best static.
	BeatsWorst bool
	WithinBest bool
}

// AdaptiveVsStatic replays every benchmark's log through the Figure 9 static
// layouts and through an adaptive graph starting from the balanced split.
func AdaptiveVsStatic(s *Suite) ([]AdaptiveRow, error) {
	const adaptive = 3 // the adaptive graph replays after the three static layouts
	m, err := replayMatrix(s, halfPeak, adaptive, func(capacity uint64) []core.GraphSpec {
		// The controller adapts the capacity split only, so the graph keeps
		// the paper's single-hit promote-on-access gate and starts from the
		// neutral balanced split — the proportions are what it must discover
		// online.
		spec := core.Config{
			TotalCapacity: capacity,
			NurseryFrac:   1.0 / 3, ProbationFrac: 1.0 / 3, PersistentFrac: 1.0 / 3,
			PromoteThreshold: 1, PromoteOnAccess: true,
		}.GraphSpec()
		// Epochs well below the default: the compressed logs the suite
		// collects carry a few thousand to a few hundred thousand accesses,
		// and the controller needs tens of decision points to walk the split.
		spec.Adaptive = &core.AdaptiveConfig{Epoch: 512}
		return append(figure9Layouts(capacity), spec)
	}, func(c replayed) (AdaptiveRow, bool) {
		row := AdaptiveRow{Name: c.run.Profile.Name}
		for i, spec := range figure9Layouts(c.capacity) {
			row.Configs = append(row.Configs, layoutLabel(spec))
			row.Static = append(row.Static, c.res[i].MissRate())
		}
		row.BestStatic, row.WorstStatic = extremes(row.Static)
		row.Adaptive = c.res[adaptive].MissRate()
		if as, ok := c.graph.AdaptiveStats(); ok {
			row.Resizes, row.Reverted = as.Resizes, as.Reversals
		}
		best, worst := row.Static[row.BestStatic], row.Static[row.WorstStatic]
		row.BeatsWorst = row.Adaptive < worst || worst == best
		row.WithinBest = row.Adaptive <= best*(1+AdaptiveTolerance) || best == 0
		return row, true
	})
	if err != nil {
		return nil, err
	}
	return m[0], nil
}

// RenderAdaptiveVsStatic renders the comparison as text.
func RenderAdaptiveVsStatic(rows []AdaptiveRow) string {
	if len(rows) == 0 {
		return ""
	}
	header := []string{"Benchmark"}
	header = append(header, rows[0].Configs...)
	header = append(header, "Adaptive", "Resizes", "Verdict")
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := append([]string{r.Name}, staticCells(r.Static, r.BestStatic, r.WorstStatic)...)
		cells = append(cells,
			fmt.Sprintf("%.3f%%", r.Adaptive*100),
			fmt.Sprintf("%d (-%d)", r.Resizes, r.Reverted),
			verdict(r.BeatsWorst, r.WithinBest))
		t.AddRow(cells...)
	}
	return t.String()
}

// extremes returns the indices of the lowest and the highest of xs, the
// first of each on ties.
func extremes(xs []float64) (lo, hi int) {
	for i, x := range xs {
		if x < xs[lo] {
			lo = i
		}
		if x > xs[hi] {
			hi = i
		}
	}
	return lo, hi
}

// staticCells renders a row's static miss rates, marking the best and the
// worst.
func staticCells(static []float64, best, worst int) []string {
	cells := make([]string, len(static))
	for i, m := range static {
		cells[i] = fmt.Sprintf("%.3f%%", m*100)
		switch i {
		case best:
			cells[i] += " (best)"
		case worst:
			cells[i] += " (worst)"
		}
	}
	return cells
}

// verdict words a controller's standing against the two bars.
func verdict(beatsWorst, withinBest bool) string {
	switch {
	case beatsWorst && withinBest:
		return "beats worst, within best"
	case beatsWorst:
		return "beats worst"
	case withinBest:
		return "within best"
	default:
		return "worse than worst"
	}
}
