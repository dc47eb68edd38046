package repro

import (
	"io"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/policy"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Re-exported types. Aliases keep the implementation in focused internal
// packages while giving users a single import.
type (
	// Manager is a global code-cache management scheme (unified or
	// generational).
	Manager = core.Manager
	// Observer receives cache-lifecycle events (inserts, evictions,
	// promotions, unmaps, link severs, flushes, replay progress).
	Observer = obs.Observer
	// ObserverFunc adapts a plain function to an Observer.
	ObserverFunc = obs.Func
	// EventBus fans one event stream out to several observers.
	EventBus = obs.Bus
	// CacheEvent is one observable cache-lifecycle event.
	CacheEvent = obs.Event
	// EventKind enumerates observable event types.
	EventKind = obs.Kind
	// GenerationalConfig describes a nursery/probation/persistent layout.
	GenerationalConfig = core.Config
	// Level identifies a cache within a manager.
	Level = core.Level
	// Fragment is a cached code trace.
	Fragment = codecache.Fragment
	// LocalPolicy is a within-cache replacement policy.
	LocalPolicy = policy.Local
	// CostModel is the Table 2 instruction-overhead model.
	CostModel = costmodel.Model
	// Profile describes a synthetic benchmark.
	Profile = workload.Profile
	// Bench is a synthesized benchmark: image plus execution plan.
	Bench = workload.Bench
	// Engine is the dynamic-optimizer engine.
	Engine = dbt.Engine
	// EngineConfig parameterizes the engine.
	EngineConfig = dbt.Config
	// Guest is a program under the engine's control.
	Guest = dbt.Guest
	// RunStats aggregates one engine run.
	RunStats = dbt.RunStats
	// Event is one cache-log event.
	Event = tracelog.Event
	// ReplayResult reports one log replay.
	ReplayResult = sim.Result
	// Comparison pairs a unified baseline with a generational replay.
	Comparison = sim.Comparison
	// Image is a guest program image.
	Image = program.Image
	// Machine is the reference interpreter.
	Machine = vm.Machine
	// Lifetimes tracks trace lifetimes (Equation 2).
	Lifetimes = stats.Lifetimes
)

// Cache levels.
const (
	LevelUnified    = core.LevelUnified
	LevelNursery    = core.LevelNursery
	LevelProbation  = core.LevelProbation
	LevelPersistent = core.LevelPersistent
)

// Observable event kinds.
const (
	EventInsert    = obs.KindInsert
	EventEvict     = obs.KindEvict
	EventPromote   = obs.KindPromote
	EventUnmap     = obs.KindUnmap
	EventLinkSever = obs.KindLinkSever
	EventFlush     = obs.KindFlush
	EventProgress  = obs.KindProgress
	// EventPolicySwitch reports the online selector making a new local
	// policy live on a tier.
	EventPolicySwitch = obs.KindPolicySwitch
)

// DefaultCostModel is Table 2 of the paper.
var DefaultCostModel = costmodel.DefaultModel

// NewUnified creates a single trace cache of the given capacity managed by
// the §4.3 pseudo-circular policy (the paper's baseline). o may be nil.
func NewUnified(capacity uint64, o Observer) *TierGraph {
	return core.NewUnified(capacity, nil, o)
}

// NewUnifiedWithPolicy creates a unified cache with an explicit local
// replacement policy. o may be nil.
func NewUnifiedWithPolicy(capacity uint64, local LocalPolicy, o Observer) *TierGraph {
	return core.NewUnified(capacity, local, o)
}

// Local replacement policies (§4).
func PseudoCircularPolicy() LocalPolicy  { return policy.PseudoCircular{} }
func LRUPolicy() LocalPolicy             { return policy.NewLRU() }
func FlushWhenFullPolicy() LocalPolicy   { return &policy.FlushWhenFull{} }
func PreemptiveFlushPolicy() LocalPolicy { return policy.NewPreemptiveFlush() }

// The policy zoo (internal/policy registry): named, parameterized policy
// specs resolvable at run time.
type (
	// PolicyFactory stamps out fresh instances of one configured policy.
	PolicyFactory = policy.Factory
	// PolicyInfo describes one registered policy.
	PolicyInfo = policy.Info
)

// ParsePolicy resolves a registry spec ("lru", "trrip:cold=4") into a
// factory of fresh policy instances.
func ParsePolicy(spec string) (PolicyFactory, error) { return policy.Parse(spec) }

// Policies lists the registered policies in registration order.
func Policies() []PolicyInfo { return policy.List() }

// NewGenerational creates the paper's generational manager. o may be nil.
func NewGenerational(cfg GenerationalConfig, o Observer) (*TierGraph, error) {
	return core.NewGraph(cfg.GraphSpec(), o)
}

// BestLayout returns the paper's best-overall configuration: 45% nursery,
// 10% probation, 45% persistent, single-hit promotion.
func BestLayout(totalCapacity uint64) GenerationalConfig {
	return core.Layout451045Threshold1(totalCapacity)
}

// The tier-graph API (internal/core): a manager as an arbitrary chain of
// tiers with declarative eviction edges. NewUnified and NewGenerational
// return prebuilt stock graphs; these exports build any other shape.
type (
	// TierGraph is a manager built from a declarative tier specification.
	TierGraph = core.Graph
	// GraphSpec describes a whole tier graph.
	GraphSpec = core.GraphSpec
	// TierSpec describes one tier of a graph.
	TierSpec = core.TierSpec
	// AdaptiveConfig tunes the adaptive capacity-split controller.
	AdaptiveConfig = core.AdaptiveConfig
	// AdaptiveStats counts split-controller activity.
	AdaptiveStats = core.AdaptiveStats
	// SelectorConfig tunes the online policy selector raced on tiers whose
	// spec sets Policy: "auto".
	SelectorConfig = core.SelectorConfig
	// SelectorStats counts policy-selector activity.
	SelectorStats = core.SelectorStats
)

// NewTierGraph builds a manager from a graph specification. o may be nil.
func NewTierGraph(spec GraphSpec, o Observer) (*TierGraph, error) {
	return core.NewGraph(spec, o)
}

// ParseTierSpec parses a layout string like "45-10-45@1" (or a deeper one
// like "30-10-20-40@1,2") into a graph specification over totalCapacity.
func ParseTierSpec(s string, totalCapacity uint64) (GraphSpec, error) {
	return core.ParseTierSpec(s, totalCapacity)
}

// UnifiedGraphSpec is the single-tier graph equivalent to the unified
// baseline: one pseudo-circular cache holding everything.
func UnifiedGraphSpec(capacity uint64) GraphSpec {
	return core.UnifiedSpec(capacity, nil)
}

// ReplayTierGraph replays a log through a freshly built tier graph.
func ReplayTierGraph(benchmark string, events []Event, spec GraphSpec) (ReplayResult, error) {
	return sim.ReplayGraph(benchmark, events, spec, costmodel.DefaultModel)
}

// Benchmarks returns every benchmark profile (20 SPEC2000 + the 12
// interactive applications of Table 1).
func Benchmarks() []Profile { return workload.All() }

// BenchmarkByName finds a benchmark profile.
func BenchmarkByName(name string) (Profile, bool) { return workload.ByName(name) }

// Synthesize builds the synthetic program and execution plan for a profile.
func Synthesize(p Profile) (*Bench, error) { return workload.Synthesize(p) }

// NewEngine creates a dynamic-optimizer engine for an image.
func NewEngine(img *Image, cfg EngineConfig) (*Engine, error) { return dbt.New(img, cfg) }

// NewInterpreter creates the reference interpreter for an image.
func NewInterpreter(img *Image) *Machine { return vm.New(img) }

// VMGuest adapts an interpreter to the engine's Guest interface.
func VMGuest(m *Machine) Guest { return &dbt.VMGuest{M: m} }

// NewLogWriter opens a cache-event log for writing.
func NewLogWriter(w io.Writer, benchmark string, durationMicros uint64) (*tracelog.Writer, error) {
	return tracelog.NewWriter(w, tracelog.Header{Benchmark: benchmark, DurationMicros: durationMicros})
}

// ReadLog decodes a cache-event log.
func ReadLog(r io.Reader) (benchmark string, events []Event, err error) {
	h, evs, err := tracelog.ReadAll(r)
	return h.Benchmark, evs, err
}

// Compare replays a log under a unified cache of the given capacity and a
// generational layout of the same total capacity, returning the paper's
// headline metrics (miss-rate reduction, misses eliminated, Equation 3
// overhead ratio).
func Compare(benchmark string, events []Event, capacity uint64, cfg GenerationalConfig) (Comparison, error) {
	return sim.Compare(benchmark, events, capacity, cfg, costmodel.DefaultModel)
}

// ReplayUnified replays a log under the unified baseline.
func ReplayUnified(benchmark string, events []Event, capacity uint64) (ReplayResult, error) {
	return sim.ReplayUnified(benchmark, events, capacity, costmodel.DefaultModel)
}

// ReplayGenerational replays a log under a generational layout.
func ReplayGenerational(benchmark string, events []Event, cfg GenerationalConfig) (ReplayResult, error) {
	return sim.ReplayGenerational(benchmark, events, cfg, costmodel.DefaultModel)
}

// ReplayWith replays a log under an arbitrary manager. mk receives the
// observer that charges evictions and promotions to the replay's cost
// accumulator and must return a freshly constructed manager wired to it
// (fan additional observers in with an EventBus).
func ReplayWith(benchmark string, events []Event, mk func(Observer) Manager) (ReplayResult, error) {
	acc := costmodel.NewAccum(costmodel.DefaultModel)
	mgr := mk(sim.CostObserver(acc))
	return sim.Replay(benchmark, events, mgr, acc, nil)
}

// NewLifetimes returns an empty lifetime tracker.
func NewLifetimes() *Lifetimes { return stats.NewLifetimes() }

// UnboundedPeak returns the peak live trace-cache bytes over a log — the
// paper's maxCache, from which simulated capacities derive (§6 sizes the
// baseline at half of it).
func UnboundedPeak(events []Event) uint64 {
	return tracelog.Summarize(tracelog.Header{}, events).MaxLiveBytes
}

// Cross-run cache persistence (internal/persist): snapshot the long-lived
// traces of a generational cache and warm-start the next run from them.
type (
	// PersistImage is a saved persistent-cache snapshot.
	PersistImage = persist.Image
	// PersistRecord is one persisted trace.
	PersistRecord = persist.Record
	// Trace is a materialized superblock.
	Trace = trace.Trace
)

// SnapshotPersistent captures a generational manager's persistent cache,
// resolving trace bodies through the engine.
func SnapshotPersistent(benchmark string, g *TierGraph, e *Engine) PersistImage {
	return persist.Snapshot(benchmark, g, e.TraceByID)
}

// SavePersistent writes a snapshot.
func SavePersistent(w io.Writer, img PersistImage) error { return persist.Save(w, img) }

// LoadPersistent reads a snapshot.
func LoadPersistent(r io.Reader) (PersistImage, error) { return persist.Load(r) }

// RebuildPersistent revalidates a snapshot against a program image and
// reconstructs the traces that still apply.
func RebuildPersistent(img PersistImage, prog *Image) (ok []*Trace, rejected int) {
	return persist.Rebuild(img, prog)
}
