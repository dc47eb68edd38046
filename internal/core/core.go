// Package core implements the paper's central contribution: global code
// cache management. A manager owns one or more code caches and decides where
// traces live, when they move, and when they die.
//
// Every manager is a tier graph (see graph.go), a *Graph built from a
// plain-data GraphSpec: a chain of caches connected by eviction edges, each
// edge gated by a promotion threshold. Two stock shapes reproduce the paper.
// Unified is the baseline: a single trace cache driven by a local
// replacement policy (the paper's baseline is a single pseudo-circular cache
// sized at half the workload's unbounded footprint). Generational is the
// proposal of §5: a nursery cache receives all new traces; traces evicted
// from the nursery move to a probation cache; traces that prove themselves
// in probation are promoted to a persistent cache, while the rest die
// (Figure 8). The probation cache plays the role of a victim cache whose
// hits identify long-lived traces (§5.3).
package core

import (
	"repro/internal/obs"
	"repro/internal/policy"
)

// Level identifies one cache within a manager. It is an alias for obs.Level
// so manager events and the observer bus share one vocabulary.
type Level = obs.Level

// Cache levels. Unified managers use LevelUnified only; generational
// managers use the other three (N-generation graphs label extra middle
// generations with levels past the named ones).
const (
	LevelUnified    = obs.LevelUnified
	LevelNursery    = obs.LevelNursery
	LevelProbation  = obs.LevelProbation
	LevelPersistent = obs.LevelPersistent
)

// NewUnified creates a unified pseudo-circular cache of the given capacity.
// Lifecycle events are published to o (nil for none). A cache's local
// policy is named only by TierSpec.Policy; the middle parameter is kept for
// existing callers and must be nil.
func NewUnified(capacity uint64, local policy.Local, o obs.Observer) *Graph {
	if local != nil {
		panic("core: NewUnified takes no policy instance; name one in TierSpec.Policy")
	}
	g, err := NewGraph(UnifiedSpec(capacity), o)
	if err != nil {
		// A one-tier spec can only fail on zero capacity, which the arena
		// layer has always treated as a programming error.
		panic(err)
	}
	return g
}

// The Figure 9 layouts, as ThreeTier chains.

// Layout433Threshold10 is Figure 9's 33%-33%-33% layout with threshold 10.
func Layout433Threshold10(total uint64) GraphSpec {
	return ThreeTier(total, 1.0/3, 1.0/3, 1.0/3, 10)
}

// Layout451045Threshold1 is Figure 9's best-overall 45%-10%-45% layout with
// single-hit promotion.
func Layout451045Threshold1(total uint64) GraphSpec {
	return ThreeTier(total, 0.45, 0.10, 0.45, 1)
}

// Layout104545Threshold10 is Figure 9's 10%-45%-45% layout with threshold 10.
func Layout104545Threshold10(total uint64) GraphSpec {
	return ThreeTier(total, 0.10, 0.45, 0.45, 10)
}
