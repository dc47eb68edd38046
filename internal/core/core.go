// Package core implements the paper's central contribution: global code
// cache management. A Manager owns one or more code caches and decides where
// traces live, when they move, and when they die.
//
// Managers are tier graphs (see graph.go): chains of caches connected by
// eviction edges with pluggable promotion predictors. Two stock shapes
// reproduce the paper. Unified is the baseline: a single trace cache driven
// by a local replacement policy (the paper's baseline is a single
// pseudo-circular cache sized at half the workload's unbounded footprint).
// Generational is the proposal of §5: a nursery cache receives all new
// traces; traces evicted from the nursery move to a probation cache; traces
// that prove themselves in probation are promoted to a persistent cache,
// while the rest die (Figure 8). The probation cache plays the role of a
// victim cache whose hits identify long-lived traces (§5.3).
package core

import (
	"repro/internal/codecache"
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

// Stats aggregates manager activity.
type Stats struct {
	Inserts             uint64 // new traces accepted
	Accesses            uint64 // Access calls
	Hits                uint64 // Access calls that found the trace resident
	Evicted             uint64 // traces that left the system from capacity pressure
	EvictedBytes        uint64
	PromotedToProbation uint64
	PromotedToPersist   uint64
	ProbationDeaths     uint64 // probation victims that failed the threshold
	ForcedDeletes       uint64 // program-forced (module unmap) deletions
	ForcedDeleteBytes   uint64
	DropTooBig          uint64 // traces that could not fit anywhere
}

// Manager is a global code-cache management scheme. Every manager publishes
// its trace lifecycle — insertions, capacity evictions, promotions, and
// program-forced deletions — to the obs.Observer it was constructed with
// (see NewGraph, NewGraphShared, NewUnified); the simulator's cost
// accounting and the experiment metrics both subscribe to that bus.
type Manager interface {
	// Name identifies the configuration in experiment output.
	Name() string
	// Insert accepts a newly generated trace.
	Insert(f codecache.Fragment) error
	// Access records that execution entered the trace with the given ID and
	// reports whether it was resident (a code-cache hit).
	Access(id uint64) bool
	// Contains reports residency without touching access counters.
	Contains(id uint64) bool
	// DeleteModule force-deletes every trace from module m (program-forced
	// eviction, e.g. a DLL unmap) and returns the victims.
	DeleteModule(m uint16) []codecache.Fragment
	// SetUndeletable pins or unpins a resident trace.
	SetUndeletable(id uint64, pinned bool) bool
	// Capacity returns the total bytes across all managed caches.
	Capacity() uint64
	// Used returns the occupied bytes across all managed caches.
	Used() uint64
	// Stats returns aggregate counters.
	Stats() Stats
	// Levels returns each cache's level and arena stats, for reporting.
	Levels() map[Level]codecache.Stats
}

// RunAccessor is the batched form of Manager.Access, implemented by managers
// that can absorb a run of accesses in one call. AccessRun processes the
// longest leading prefix of ids that hit, exactly as if Access had been
// called for each, and returns how many it processed; the id at the returned
// index has not been accessed (it missed, or is not resident privately) and
// the caller replays it through the per-event Access. A return of -1 means
// the manager cannot batch at all right now (an adaptive controller or
// policy selector needs to see every probe); the caller must fall back to
// per-event Access permanently for this manager.
//
// The batched replay kernel (sim.StepBlock) is the intended caller: runs of
// accesses are the overwhelming majority of any trace log, and hoisting the
// per-event interface dispatch, statistics writes, and tier-probe order out
// of the loop is where the kernel's throughput comes from.
type RunAccessor interface {
	AccessRun(ids []uint64) int
}

// NewUnified creates a unified cache of the given capacity with the given
// local policy (nil defaults to pseudo-circular). Lifecycle events are
// published to o (nil for none).
func NewUnified(capacity uint64, local policy.Local, o obs.Observer) *Graph {
	g, err := NewGraph(UnifiedSpec(capacity, local), o)
	if err != nil {
		// A one-tier spec can only fail on zero capacity, which the arena
		// layer has always treated as a programming error.
		panic(err)
	}
	return g
}

// ---------------------------------------------------------------------------
// Legacy three-tier configuration

// Config describes a generational layout. Fractions are of TotalCapacity
// and should sum to 1; its GraphSpec's Validate checks this. It is the fixed three-tier
// ancestor of GraphSpec, kept as the preset vocabulary of the paper's
// experiments (Figure 9's layouts); managers are built from its GraphSpec.
type Config struct {
	TotalCapacity  uint64
	NurseryFrac    float64
	ProbationFrac  float64
	PersistentFrac float64

	// PromoteThreshold is the number of probation-cache accesses a trace
	// needs to earn promotion to the persistent cache. Figure 9's "@1" and
	// "@10" labels are this knob.
	PromoteThreshold uint64

	// PromoteOnAccess promotes a probation trace the moment it reaches the
	// threshold rather than waiting for its eviction (§5.3's "each hit in
	// the probation cache triggers an upgrade" when the threshold is 1).
	PromoteOnAccess bool

	// Local constructs the local policy for each cache; nil defaults to
	// pseudo-circular for all three, which is the paper's design.
	Local func(Level) policy.Local
}

// Layout433Threshold10 is Figure 9's 33%-33%-33% layout with threshold 10.
func Layout433Threshold10(total uint64) Config {
	return Config{TotalCapacity: total, NurseryFrac: 1.0 / 3, ProbationFrac: 1.0 / 3, PersistentFrac: 1.0 / 3, PromoteThreshold: 10, PromoteOnAccess: false}
}

// Layout451045Threshold1 is Figure 9's best-overall 45%-10%-45% layout with
// single-hit promotion.
func Layout451045Threshold1(total uint64) Config {
	return Config{TotalCapacity: total, NurseryFrac: 0.45, ProbationFrac: 0.10, PersistentFrac: 0.45, PromoteThreshold: 1, PromoteOnAccess: true}
}

// Layout104545Threshold10 is Figure 9's 10%-45%-45% layout with threshold 10.
func Layout104545Threshold10(total uint64) Config {
	return Config{TotalCapacity: total, NurseryFrac: 0.10, ProbationFrac: 0.45, PersistentFrac: 0.45, PromoteThreshold: 10, PromoteOnAccess: false}
}

// Compile-time interface check.
var _ Manager = (*Graph)(nil)
