package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// halfPeak is the paper's capacity rule (§6): half the log's unbounded peak.
var halfPeak = []float64{0.5}

// noGraph tells replayMatrix that a study reads no replay's graph.
const noGraph = -1

// replayed is one log's replays at one capacity, as a study's row builder
// receives them.
type replayed struct {
	run      *Run
	capacity uint64
	res      []sim.Result // one per spec, in spec order
	graph    *core.Graph  // the kept spec's graph; nil for noGraph
}

// vs scores spec i against spec 0, the study's unified baseline.
func (c replayed) vs(i int) sim.Comparison {
	return sim.Comparison{Unified: c.res[0], Generational: c.res[i]}
}

// replayMatrix is the paper's method (§6) for every study that compares
// cache configurations: each collected log replays under each configuration.
// For each fraction in fracs and each log, it sizes the cache at that
// fraction of the log's unbounded peak, replays specs(capacity) in order and
// hands the results to row. A log whose capacity rounds to 0 gets no row,
// and row drops a log by returning false. The (fraction, log) jobs run on
// the suite's pipeline as one list, so the pool stays busy across fraction
// boundaries; out[f] holds fraction f's rows in log order.
//
// Only the graph of specs[keep] outlives its replay, for a row that reads
// the graph's controller or selector counters; every other graph is garbage
// once its replay ends. A study that keeps no graph reads and fills the
// suite's result memo, so a (log, spec) pair another study has replayed on
// the same suite is not replayed again.
func replayMatrix[T any](s *Suite, fracs []float64, keep int,
	specs func(capacity uint64) []core.GraphSpec,
	row func(c replayed) (T, bool)) ([][]T, error) {
	type cell struct {
		row T
		ok  bool
	}
	var jobs []pipeline.Job[cell]
	for _, frac := range fracs {
		for _, r := range s.Runs {
			jobs = append(jobs, pipeline.Job[cell]{Name: r.Profile.Name, Run: func(context.Context) (cell, error) {
				capacity := uint64(float64(r.MaxTraceBytes()) * frac)
				if capacity == 0 {
					return cell{}, nil
				}
				c := replayed{run: r, capacity: capacity}
				for i, spec := range specs(capacity) {
					var res sim.Result
					var err error
					if keep == noGraph {
						res, err = s.memo.replay(r, spec)
					} else {
						var g *core.Graph
						res, g, err = replay(r, spec)
						if i == keep {
							c.graph = g
						}
					}
					if err != nil {
						return cell{}, err
					}
					c.res = append(c.res, res)
				}
				var out cell
				out.row, out.ok = row(c)
				return out, nil
			}})
		}
	}
	cells, err := pipeline.Map(s.context(), pipeline.Options{Parallel: s.Parallel}, jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]T, len(fracs))
	for i, c := range cells {
		if c.ok {
			f := i / len(s.Runs)
			out[f] = append(out[f], c.row)
		}
	}
	return out, nil
}

// replay runs r's log under spec, charged by the default cost model.
func replay(r *Run, spec core.GraphSpec) (sim.Result, *core.Graph, error) {
	acc := costmodel.NewAccum(costmodel.DefaultModel)
	g, err := core.NewGraph(spec, sim.CostObserver(acc))
	if err != nil {
		return sim.Result{}, nil, err
	}
	res, err := sim.Replay(r.Profile.Name, r.Events, g, acc, nil)
	return res, g, err
}

// replayMemo holds the results of replays whose graph no study keeps, keyed
// by log and spec, for the life of the suite. Rows only read a result, so a
// hit hands out the stored one, cost accumulator included. The mutex serves
// the pipeline's workers; two workers that miss on one key both replay it
// and store equal results.
type replayMemo struct {
	mu  sync.Mutex
	res map[memoKey]sim.Result
}

// memoKey names one replay: the log and the canonical text of the spec.
type memoKey struct {
	run  *Run
	spec string
}

// replay returns r's result under spec, replaying it on the memo's first
// request for the pair. A spec memoSpec refuses replays every time.
func (m *replayMemo) replay(r *Run, spec core.GraphSpec) (sim.Result, error) {
	canon, text, ok := memoSpec(spec)
	if !ok {
		res, _, err := replay(r, spec)
		return res, err
	}
	k := memoKey{run: r, spec: text}
	m.mu.Lock()
	res, hit := m.res[k]
	m.mu.Unlock()
	if hit {
		return res, nil
	}
	res, _, err := replay(r, canon)
	if err != nil {
		return res, err
	}
	m.mu.Lock()
	if m.res == nil {
		m.res = make(map[memoKey]sim.Result)
	}
	m.res[k] = res
	m.mu.Unlock()
	return res, nil
}

// memoSpec returns spec with every tier policy in its canonical spelling,
// and the text that keys its replay: the canonical spec in Go syntax, which
// spells every field exactly (a float in its shortest round-trip form). Two
// specs with one text build the same graph, name included, so they replay
// the same. It refuses (false) a spec with an adaptive controller, a
// selector configuration or a ledger, whose replay is more than its result,
// and one whose policy does not parse, which NewGraph reports.
func memoSpec(spec core.GraphSpec) (core.GraphSpec, string, bool) {
	if spec.Adaptive != nil || spec.Selector != nil || spec.Attrib != nil {
		return spec, "", false
	}
	spec.Tiers = slices.Clone(spec.Tiers)
	for i, t := range spec.Tiers {
		p, err := core.CanonicalPolicy(t.Policy)
		if err != nil {
			return spec, "", false
		}
		spec.Tiers[i].Policy = p
	}
	return spec, fmt.Sprintf("%#v", spec), true
}

// withBaseline returns the unified pseudo-circular baseline of capacity
// followed by specs: spec 0 of every comparison against the unified cache.
func withBaseline(capacity uint64, specs ...core.GraphSpec) []core.GraphSpec {
	return append([]core.GraphSpec{core.UnifiedSpec(capacity)}, specs...)
}

// headline is the paper's headline comparison: the unified baseline and
// the 45-10-45 @1 layout of the same capacity.
func headline(capacity uint64) []core.GraphSpec {
	return withBaseline(capacity, core.Layout451045Threshold1(capacity))
}

// means averages rows column by column: each of the width columns sums its
// rows in order and divides by the number of rows, and is 0 when there are
// none.
func means(rows [][]float64, width int) []float64 {
	out := make([]float64, width)
	for _, r := range rows {
		for i, v := range r {
			out[i] += v
		}
	}
	if len(rows) > 0 {
		for i := range out {
			out[i] /= float64(len(rows))
		}
	}
	return out
}
