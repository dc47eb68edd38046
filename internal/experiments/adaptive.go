package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/sim"
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
	rows, err := perRun(s, func(r *Run) (*AdaptiveRow, error) {
		capacity := r.MaxTraceBytes() / 2
		if capacity == 0 {
			return nil, nil
		}
		row := &AdaptiveRow{Name: r.Profile.Name, BestStatic: -1, WorstStatic: -1}
		for _, cfg := range figure9Layouts(capacity) {
			g, err := sim.ReplayGenerational(r.Profile.Name, r.Events, cfg, s.Model)
			if err != nil {
				return nil, err
			}
			row.Configs = append(row.Configs, configLabel(cfg))
			row.Static = append(row.Static, g.MissRate())
		}
		for i, m := range row.Static {
			if row.BestStatic < 0 || m < row.Static[row.BestStatic] {
				row.BestStatic = i
			}
			if row.WorstStatic < 0 || m > row.Static[row.WorstStatic] {
				row.WorstStatic = i
			}
		}

		// Build the adaptive manager by hand (rather than via ReplayGraph) so
		// the controller's own counters survive the replay. The controller
		// adapts the capacity split only, so the graph keeps the paper's
		// single-hit promote-on-access gate and starts from the neutral
		// balanced split — the proportions are what it must discover online.
		spec := core.Config{
			TotalCapacity: capacity,
			NurseryFrac:   1.0 / 3, ProbationFrac: 1.0 / 3, PersistentFrac: 1.0 / 3,
			PromoteThreshold: 1, PromoteOnAccess: true,
		}.GraphSpec()
		// Epochs well below the default: the compressed logs the suite
		// collects carry a few thousand to a few hundred thousand accesses,
		// and the controller needs tens of decision points to walk the split.
		spec.Adaptive = &core.AdaptiveConfig{Epoch: 512}
		acc := costmodel.NewAccum(s.Model)
		mgr, err := core.NewGraph(spec, sim.CostObserver(acc))
		if err != nil {
			return nil, err
		}
		a, err := sim.Replay(r.Profile.Name, r.Events, mgr, acc, nil)
		if err != nil {
			return nil, err
		}
		row.Adaptive = a.MissRate()
		if as, ok := mgr.AdaptiveStats(); ok {
			row.Resizes, row.Reverted = as.Resizes, as.Reversals
		}
		best, worst := row.Static[row.BestStatic], row.Static[row.WorstStatic]
		row.BeatsWorst = row.Adaptive < worst || worst == best
		row.WithinBest = row.Adaptive <= best*(1+AdaptiveTolerance) || best == 0
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var out []AdaptiveRow
	for _, row := range rows {
		if row != nil {
			out = append(out, *row)
		}
	}
	return out, nil
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
		cells := []string{r.Name}
		for i, m := range r.Static {
			label := fmt.Sprintf("%.3f%%", m*100)
			switch i {
			case r.BestStatic:
				label += " (best)"
			case r.WorstStatic:
				label += " (worst)"
			}
			cells = append(cells, label)
		}
		cells = append(cells,
			fmt.Sprintf("%.3f%%", r.Adaptive*100),
			fmt.Sprintf("%d (-%d)", r.Resizes, r.Reverted),
			adaptiveVerdict(r))
		t.AddRow(cells...)
	}
	return t.String()
}

func adaptiveVerdict(r AdaptiveRow) string {
	switch {
	case r.BeatsWorst && r.WithinBest:
		return "beats worst, within best"
	case r.BeatsWorst:
		return "beats worst"
	case r.WithinBest:
		return "within best"
	default:
		return "worse than worst"
	}
}
