package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/obs"
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
	m, err := replayMatrix(s, halfPeak, len(candidates), func(capacity uint64) []core.GraphSpec {
		var specs []core.GraphSpec
		for _, cand := range candidates {
			spec := core.UnifiedSpec(capacity, nil)
			spec.Tiers[0].Policy = cand
			specs = append(specs, spec)
		}
		// Epochs well below the default: the compressed logs the suite
		// collects carry a few thousand to a few hundred thousand accesses,
		// and the selector needs tens of decision windows to race the zoo.
		sel := core.UnifiedSpec(capacity, nil)
		sel.Tiers[0].Policy = "auto"
		sel.Selector = &core.SelectorConfig{Epoch: 256, Candidates: candidates}
		// The attribution ledger rides the selector graph so the switch
		// report can say what kind of misses the selector was fighting. It
		// only observes: miss rates and switch counts are unchanged.
		sel.Attrib = &attrib.Config{}
		return append(specs, sel)
	}, func(c replayed) (PolicySelectRow, bool) {
		row := PolicySelectRow{Name: c.run.Profile.Name, Configs: append([]string(nil), candidates...)}
		for i := range candidates {
			row.Static = append(row.Static, c.res[i].MissRate())
		}
		row.BestStatic, row.WorstStatic = extremes(row.Static)
		row.Selector = c.res[len(candidates)].MissRate()
		if ss, ok := c.graph.SelectorStats(); ok {
			row.Switches, row.Reverted = ss.Switches, ss.Reversals
			row.Causes = ss.MissCauses
		}
		row.Final = strings.Join(c.graph.LivePolicies(), "-")
		best, worst := row.Static[row.BestStatic], row.Static[row.WorstStatic]
		row.BeatsWorst = row.Selector < worst || worst == best
		row.WithinBest = row.Selector <= best*(1+PolicySelectTolerance) || best == 0
		return row, true
	})
	if err != nil {
		return nil, err
	}
	return m[0], nil
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
		cells := append([]string{r.Name}, staticCells(r.Static, r.BestStatic, r.WorstStatic)...)
		cells = append(cells,
			fmt.Sprintf("%.3f%%", r.Selector*100),
			fmt.Sprintf("%d (-%d)", r.Switches, r.Reverted),
			r.Final,
			verdict(r.BeatsWorst, r.WithinBest),
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
