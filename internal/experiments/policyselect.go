package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The policy-selection experiment: the paper fixes the pseudo-circular local
// policy after comparing the §4 alternatives offline. The online policy
// selector instead shadow-races the candidate zoo on the live cache and
// switches the installed policy at deterministic epoch boundaries. The
// experiment replays each benchmark's log through a unified cache pinned to
// each static candidate and through the same cache under selection, and
// checks the selector against the same two bars as the adaptive-split
// controller: it must beat the worst static policy (the cost of picking a
// policy blind) and land within tolerance of the best one (the value of
// tuning offline).

// PolicySelectTolerance is how close (relative) the selector's miss rate
// must be to the best static policy's to count as matching it.
const PolicySelectTolerance = 0.05

// PolicySelectRow is one benchmark's static-vs-selector comparison.
type PolicySelectRow struct {
	Name    string
	Configs []string  // static policy specs, candidate order
	Static  []float64 // miss rate per static policy
	// BestStatic/WorstStatic index Configs/Static.
	BestStatic  int
	WorstStatic int

	Selector float64 // selector graph's miss rate
	Switches uint64  // live-policy swaps the selector applied
	Reverted uint64  // swaps that undid the previous one
	Final    string  // live policy when the replay ended
	// Causes is the selector run's per-cause miss breakdown (indexed by
	// obs.Reason), from the attribution ledger riding the selector graph —
	// the switch report's "what the selector was up against".
	Causes [obs.NumReasons]uint64

	// BeatsWorst: selector < worst static. WithinBest: selector is within
	// PolicySelectTolerance (relative) of the best static.
	BeatsWorst bool
	WithinBest bool
}

// PolicySelection replays every benchmark's log through a unified cache
// pinned to each candidate policy and through the same cache under online
// selection.
func PolicySelection(s *Suite) ([]PolicySelectRow, error) {
	candidates := core.DefaultSelectorCandidates
	rows, err := perRun(s, func(r *Run) (*PolicySelectRow, error) {
		capacity := r.MaxTraceBytes() / 2
		if capacity == 0 {
			return nil, nil
		}
		row := &PolicySelectRow{Name: r.Profile.Name, BestStatic: -1, WorstStatic: -1}
		for _, cand := range candidates {
			spec := core.UnifiedSpec(capacity, nil)
			spec.Tiers[0].Policy = cand
			g, err := sim.ReplayGraph(r.Profile.Name, r.Events, spec, s.Model)
			if err != nil {
				return nil, err
			}
			row.Configs = append(row.Configs, cand)
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

		// Build the selector manager by hand (rather than via ReplayGraph) so
		// its counters survive the replay. Epochs well below the default: the
		// compressed logs the suite collects carry a few thousand to a few
		// hundred thousand accesses, and the selector needs tens of decision
		// windows to race the zoo.
		spec := core.UnifiedSpec(capacity, nil)
		spec.Tiers[0].Policy = "auto"
		spec.Selector = &core.SelectorConfig{Epoch: 256, Candidates: candidates}
		// The attribution ledger rides the selector graph so the switch
		// report can say what kind of misses the selector was fighting. It
		// only observes: miss rates and switch counts are unchanged.
		spec.Attrib = &attrib.Config{}
		acc := costmodel.NewAccum(s.Model)
		mgr, err := core.NewGraph(spec, sim.CostObserver(acc))
		if err != nil {
			return nil, err
		}
		a, err := sim.Replay(r.Profile.Name, r.Events, mgr, acc, nil)
		if err != nil {
			return nil, err
		}
		row.Selector = a.MissRate()
		if ss, ok := mgr.SelectorStats(); ok {
			row.Switches, row.Reverted = ss.Switches, ss.Reversals
			row.Causes = ss.MissCauses
		}
		row.Final = strings.Join(mgr.LivePolicies(), "-")
		best, worst := row.Static[row.BestStatic], row.Static[row.WorstStatic]
		row.BeatsWorst = row.Selector < worst || worst == best
		row.WithinBest = row.Selector <= best*(1+PolicySelectTolerance) || best == 0
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var out []PolicySelectRow
	for _, row := range rows {
		if row != nil {
			out = append(out, *row)
		}
	}
	return out, nil
}

// RenderPolicySelection renders the comparison as text.
func RenderPolicySelection(rows []PolicySelectRow) string {
	if len(rows) == 0 {
		return ""
	}
	header := []string{"Benchmark"}
	header = append(header, rows[0].Configs...)
	header = append(header, "Selector", "Switches", "Final", "Verdict", "Top cause")
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
			fmt.Sprintf("%.3f%%", r.Selector*100),
			fmt.Sprintf("%d (-%d)", r.Switches, r.Reverted),
			r.Final,
			policySelectVerdict(r),
			TopCauseLabel(r.Causes))
		t.AddRow(cells...)
	}
	return t.String()
}

// TopCauseLabel names the dominant regeneration cause in a per-cause miss
// breakdown, with its share of all regenerations: "capacity 62%". Cold is a
// compile, not a regeneration, so it never wins; "-" when nothing
// regenerated.
func TopCauseLabel(causes [obs.NumReasons]uint64) string {
	var total uint64
	top, topN := obs.ReasonNone, uint64(0)
	for c := obs.Reason(1); int(c) < obs.NumReasons; c++ {
		if c == obs.ReasonCold {
			continue
		}
		total += causes[c]
		if causes[c] > topN {
			top, topN = c, causes[c]
		}
	}
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%s %.0f%%", top.String(), float64(topN)/float64(total)*100)
}

func policySelectVerdict(r PolicySelectRow) string {
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
