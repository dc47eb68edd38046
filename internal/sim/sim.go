// Package sim replays a code-cache event log against a tier-graph manager,
// reproducing the paper's evaluation methodology (§6): the benchmark runs
// once under an unbounded cache to produce the log, and every cache
// configuration under study replays the identical access stream. Misses,
// evictions, and promotions are weighed with the Table 2 cost model to
// produce the overhead numbers of Figure 11.
package sim

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/idtab"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// Result reports one replay.
type Result struct {
	Config    string
	Benchmark string

	Accesses uint64
	Hits     uint64
	Misses   uint64 // accesses to traces that had been generated but were not resident
	// ColdCreates counts first-time trace generations (identical across
	// configurations; charged to both sides of an overhead comparison).
	ColdCreates uint64
	// Regenerations counts trace re-creations forced by conflict misses.
	Regenerations uint64
	// Adoptions counts shared-tier attachments (multi-process logs only):
	// the trace was registered without paying generation cost.
	Adoptions     uint64
	ForcedDeletes uint64

	// Overhead aggregates instruction costs per the Table 2 model.
	Overhead *costmodel.Accum
}

// MissRate returns misses per access (0 for an access-free log).
func (r Result) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// ProgressStride is how many log events pass between KindProgress emissions
// during an observed replay (a final event always fires at completion).
const ProgressStride = 1 << 14

// Replayer is the incremental form of a replay: the same accounting as
// Replay, fed a block at a time. Batch replays (Replay) and streaming
// consumers (the gencached session handler, which decodes events straight
// off a network connection) share it, so a streamed replay is bit-identical
// to an offline one by construction. A Replayer is single-goroutine, like
// the manager it drives.
type Replayer struct {
	mgr *core.Graph
	// batch is whether StepBlock drains access runs through mgr.AccessRun.
	// Cleared on the manager's first -1 ("cannot batch") answer.
	batch bool
	// led is the manager's attribution ledger, when one is attached: the
	// replay registers trace identities (module, size, cold-vs-adopted) so
	// even traces whose insert is dropped under capacity pressure stay
	// attributable.
	led   *attrib.Ledger
	acc   *costmodel.Accum
	o     obs.Observer
	hooks Hooks
	res   Result

	metas    idtab.Table[meta]
	byModule map[uint16][]uint64

	count uint64 // events stepped so far
	total uint64 // declared total for progress reporting; 0 = unknown
}

// Hooks receives callouts at fixed points of a replay, letting a host layer
// context — gencached's shared persistent tier — ride alongside the replay
// without wrapping every event in its own dispatch. The callout points are
// part of the replay contract: Registered fires before a Create/Adopt is
// replayed (even one the replay will then reject as a duplicate or as
// implausibly sparse), Unmapped fires before an Unmap is replayed, and
// Regenerated fires after a conflict
// miss has been charged and re-inserted. Both the per-event and the block
// kernel honor the same points, so hosts see an identical callout stream
// either way.
type Hooks interface {
	// Registered announces a trace entering the replay via KindCreate or
	// KindAdopt, before the private manager sees it.
	Registered(trace uint64, size uint32, module uint16, head uint64)
	// Regenerated announces a conflict miss that re-generated the trace.
	Regenerated(trace uint64, size uint32, module uint16, head uint64)
	// Unmapped announces a module unmap, before the private manager's
	// deletion sweep.
	Unmapped(module uint16)
}

// SetHooks attaches h to the replay; nil detaches.
func (r *Replayer) SetHooks(h Hooks) { r.hooks = h }

type meta struct {
	size   uint32
	module uint16
	head   uint64
	known  bool
	dead   bool // module unmapped; must never be accessed again
}

// NewReplayer starts a replay of one event stream against a freshly
// constructed manager. The manager's observer must be (or fan out to)
// CostObserver(acc), or pass every event through Charge(acc, ...), so
// evictions and promotions are charged; o receives KindProgress events only.
//
// The replayer's meta tables come from a pool; a caller that is done with
// the replayer (and its Result) may return them with Recycle.
func NewReplayer(benchmark string, mgr *core.Graph, acc *costmodel.Accum, o obs.Observer) *Replayer {
	s := scratchPool.Get().(*scratch)
	return &Replayer{
		mgr:   mgr,
		batch: true,
		led:   mgr.Ledger(),
		acc:   acc,
		o:     o,
		res: Result{
			Config:    mgr.Name(),
			Benchmark: benchmark,
			Overhead:  acc,
		},
		metas:    s.metas,
		byModule: s.byModule,
	}
}

// Ledger returns the attribution ledger of the manager under replay, or nil.
func (r *Replayer) Ledger() *attrib.Ledger { return r.led }

// SetTotal declares how many events the stream will carry, for progress
// reporting. Streaming callers that do not know may leave it unset.
func (r *Replayer) SetTotal(n uint64) { r.total = n }

func (r *Replayer) lookup(id uint64) (meta, bool) {
	m := r.metas.Get(id)
	return m, m.known
}

// Step feeds the next event through the replay. It is the per-event
// reference form of StepBlock, which every replay path runs through; the
// kernel's equivalence tests compare against it.
func (r *Replayer) Step(e tracelog.Event) error {
	r.progress()
	r.count++
	return r.step1(&e)
}

// progress publishes a KindProgress event when a progress observer is
// attached and the next event to replay starts a new ProgressStride. Step
// and StepBlock call it before every event (the kernel: before every access
// run, which it ends at stride boundaries), so both emit at the same
// positions.
func (r *Replayer) progress() {
	if r.o == nil || r.count == 0 || r.count%ProgressStride != 0 {
		return
	}
	total := r.total
	if total == 0 {
		total = r.count
	}
	r.o.Observe(obs.Event{Kind: obs.KindProgress, Benchmark: r.res.Benchmark, Done: r.count, Total: total})
}

// step1 replays one event: the per-kind accounting shared by Step and the
// non-access cases of the block kernel. Progress emission and the event
// count live in the callers.
func (r *Replayer) step1(e *tracelog.Event) error {
	switch e.Kind {
	case tracelog.KindCreate, tracelog.KindAdopt:
		// An adopted trace was taken from a shared tier during the original
		// run, so no generation cost was paid. Replaying against a single
		// private manager, the body still has to be present for the later
		// accesses, so it is inserted like a created one, but charged
		// nothing.
		if r.hooks != nil {
			r.hooks.Registered(e.Trace, e.Size, e.Module, e.Head)
		}
		if _, dup := r.lookup(e.Trace); dup {
			return fmt.Errorf("sim: duplicate %s of trace %d", e.Kind, e.Trace)
		}
		// Writers number traces from 1, so IDs stay dense. A far sparser ID
		// would size every per-trace table it reaches by the ID rather than
		// by the work, so it is refused before any table sees it.
		if registered := r.res.ColdCreates + r.res.Adoptions; e.Trace >= 2*registered+1<<16 {
			return fmt.Errorf("sim: trace ID %d is implausibly sparse after %d traces", e.Trace, registered)
		}
		r.metas.Set(e.Trace, meta{size: e.Size, module: e.Module, head: e.Head, known: true})
		r.byModule[e.Module] = append(r.byModule[e.Module], e.Trace)
		cold := e.Kind == tracelog.KindCreate
		if r.led != nil {
			// Before the insert, so the ledger sees the first compile as cold
			// even when the insert itself is dropped.
			r.led.Register(e.Trace, e.Module, uint64(e.Size), cold)
		}
		if cold {
			r.res.ColdCreates++
			r.acc.ChargeTraceGen(int(e.Size))
		} else {
			r.res.Adoptions++
		}
		// Insertion failures (trace bigger than the nursery) leave the
		// trace uncached; subsequent accesses are misses.
		_ = r.mgr.Insert(codecache.Fragment{
			ID: e.Trace, Size: uint64(e.Size), Module: e.Module, HeadAddr: e.Head,
		})

	case tracelog.KindAccess:
		m, ok := r.lookup(e.Trace)
		if !ok {
			return fmt.Errorf("sim: access to unknown trace %d", e.Trace)
		}
		if m.dead {
			return fmt.Errorf("sim: access to trace %d from unmapped module %d", e.Trace, m.module)
		}
		r.res.Accesses++
		if r.mgr.Access(e.Trace) {
			r.res.Hits++
			return nil
		}
		// Conflict miss: the trace must be re-generated and re-inserted,
		// paying trace generation plus the surrounding context switches.
		r.res.Misses++
		r.res.Regenerations++
		r.acc.ChargeTraceGen(int(m.size))
		_ = r.mgr.Insert(codecache.Fragment{
			ID: e.Trace, Size: uint64(m.size), Module: m.module, HeadAddr: m.head,
		})
		if r.hooks != nil {
			r.hooks.Regenerated(e.Trace, m.size, m.module, m.head)
		}

	case tracelog.KindUnmap:
		if r.hooks != nil {
			r.hooks.Unmapped(e.Module)
		}
		victims := r.mgr.DeleteModule(e.Module)
		r.res.ForcedDeletes += uint64(len(victims))
		// Deletion work is charged per evicted trace; program-forced
		// deletions cost the same eviction labor.
		for _, v := range victims {
			r.acc.ChargeEviction(int(v.Size))
		}
		for _, id := range r.byModule[e.Module] {
			r.metas.Ref(id).dead = true
		}
		r.byModule[e.Module] = r.byModule[e.Module][:0]

	case tracelog.KindPin:
		r.mgr.SetUndeletable(e.Trace, true)
	case tracelog.KindUnpin:
		r.mgr.SetUndeletable(e.Trace, false)
	case tracelog.KindEnd:
		// nothing to do
	default:
		return fmt.Errorf("sim: unknown event kind %d", e.Kind)
	}
	return nil
}

// Events returns how many events have been stepped.
func (r *Replayer) Events() uint64 { return r.count }

// TraceInfo reports the registered identity of a trace — the size, module,
// and head address its Create or Adopt carried — including traces whose
// module has since been unmapped. Hosts use it from observer callbacks
// (e.g. a promotion hook) instead of keeping a duplicate identity table.
func (r *Replayer) TraceInfo(id uint64) (size uint32, module uint16, head uint64, ok bool) {
	m, ok := r.lookup(id)
	return m.size, m.module, m.head, ok
}

// Result returns a snapshot of the counters accumulated so far; error paths
// report it as the partial result.
func (r *Replayer) Result() Result { return r.res }

// Finish closes the replay: it publishes the final progress event and
// returns the result.
func (r *Replayer) Finish() Result {
	total := r.total
	if total == 0 {
		total = r.count
	}
	obs.Emit(r.o, obs.Event{Kind: obs.KindProgress, Benchmark: r.res.Benchmark, Done: total, Total: total})
	return r.res
}

// Replay drives every event in the log through the manager. The manager
// must be freshly constructed; Replay does not reset it. The observer wired
// at manager construction time must be (or fan out to) the one returned by
// CostObserver so evictions and promotions are charged to acc. A non-nil o
// receives a KindProgress event every ProgressStride log events and once at
// the end; cache lifecycle events come from the manager's own observer.
//
// The replay runs through the batched kernel — the same StepBlock path the
// gencached ingest uses — packed from the in-memory slice a block at a time,
// so offline results and served results come off one code path.
func Replay(benchmark string, events []tracelog.Event, mgr *core.Graph, acc *costmodel.Accum, o obs.Observer) (Result, error) {
	rep := NewReplayer(benchmark, mgr, acc, o)
	defer rep.Recycle()
	rep.SetTotal(uint64(len(events)))
	b := tracelog.GetBlock()
	defer tracelog.PutBlock(b)
	for off := 0; off < len(events); {
		off += b.Fill(events[off:])
		if err := rep.StepBlock(b); err != nil {
			return rep.Result(), err
		}
	}
	return rep.Finish(), nil
}

// CostObserver returns an observer that charges capacity evictions and
// promotions to the accumulator. Program-forced deletions (KindUnmap) are
// deliberately not charged here: Replay charges their eviction labor itself,
// keeping unified and generational configurations on the same footing.
func CostObserver(acc *costmodel.Accum) obs.Observer {
	return obs.Func(func(e obs.Event) { Charge(acc, &e) })
}

// Charge is CostObserver's accounting for one event, for observers that do
// more than charge (gencached's session sink) and must charge identically.
func Charge(acc *costmodel.Accum, e *obs.Event) {
	switch e.Kind {
	case obs.KindEvict:
		acc.ChargeEviction(int(e.Size))
	case obs.KindPromote:
		acc.ChargePromotion(int(e.Size))
	}
}

// ReplayGenerational is a convenience: replay under a freshly built tier
// graph, the generational chain of Figure 8 or any other shape spec
// describes (N generations, per-tier policies, adaptive split control).
func ReplayGenerational(benchmark string, events []tracelog.Event, spec core.GraphSpec, model costmodel.Model) (Result, error) {
	acc := costmodel.NewAccum(model)
	mgr, err := core.NewGraph(spec, CostObserver(acc))
	if err != nil {
		return Result{}, err
	}
	return Replay(benchmark, events, mgr, acc, nil)
}

// ReplayUnified is ReplayGenerational under a single pseudo-circular cache
// of the given capacity.
func ReplayUnified(benchmark string, events []tracelog.Event, capacity uint64, model costmodel.Model) (Result, error) {
	return ReplayGenerational(benchmark, events, core.UnifiedSpec(capacity), model)
}

// Comparison pairs a unified baseline with a generational configuration on
// the same log, producing the paper's headline metrics.
type Comparison struct {
	Unified      Result
	Generational Result
}

// MissRateReduction returns 1 - gen/unified miss rate (Figure 9's metric);
// positive is better.
func (c Comparison) MissRateReduction() float64 {
	u := c.Unified.MissRate()
	if u == 0 {
		return 0
	}
	return 1 - c.Generational.MissRate()/u
}

// MissesEliminated returns the absolute miss reduction (Figure 10).
func (c Comparison) MissesEliminated() int64 {
	return int64(c.Unified.Misses) - int64(c.Generational.Misses)
}

// OverheadRatio returns generational overhead / unified overhead
// (Equation 3, Figure 11); below 1 is better.
func (c Comparison) OverheadRatio() float64 {
	return costmodel.OverheadRatio(c.Generational.Overhead, c.Unified.Overhead)
}

// Compare replays the log under the generational graph spec describes and
// under a unified cache of the same total capacity, both charged by
// costmodel.DefaultModel.
func Compare(benchmark string, events []tracelog.Event, spec core.GraphSpec) (Comparison, error) {
	u, err := ReplayUnified(benchmark, events, spec.TotalCapacity, costmodel.DefaultModel)
	if err != nil {
		return Comparison{}, err
	}
	g, err := ReplayGenerational(benchmark, events, spec, costmodel.DefaultModel)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Unified: u, Generational: g}, nil
}
