// Multi-process shared-tier replay: N simulated processes replay the same
// captured event stream — N instances of one application — each with a
// private nursery and probation, all over one shared persistent tier. The
// interesting question is how many trace generations the sharing saves: a
// process whose hot trace is already published by a peer adopts it instead
// of paying generation cost.

package sim

import (
	"fmt"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// SharedResult reports one multi-process shared-tier replay, aggregated
// across processes.
type SharedResult struct {
	Config    string
	Benchmark string
	Procs     int

	Accesses      uint64
	Hits          uint64
	Misses        uint64
	ColdCreates   uint64 // generations actually paid (adoptions excluded)
	Regenerations uint64
	Adoptions     uint64 // generations avoided by adopting a peer's trace
	ForcedDeletes uint64

	// Overhead aggregates instruction costs across all processes.
	Overhead *costmodel.Accum
	// Shared is the shared tier's own counter set after the run.
	Shared core.SharedStats
	// CapacityBytes is the total memory footprint: N private
	// nursery+probation pairs plus one shared persistent arena.
	CapacityBytes uint64
}

// Generations returns the aggregate trace generations paid.
func (r SharedResult) Generations() uint64 { return r.ColdCreates + r.Regenerations }

// MissRate returns misses per access.
func (r SharedResult) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// sharedProc is one simulated process's replay state.
type sharedProc struct {
	mgr *core.Graph
	// binding maps an original log trace ID to the ID this process actually
	// executes: its own remapped copy, or an adopted peer ID.
	binding map[uint64]uint64
	dead    map[uint64]bool // original IDs from modules this process unmapped
	idx     int             // next event index
	done    bool
}

// ReplayShared replays the log through procs simulated processes over one
// shared persistent tier: each process runs spec's private tiers, and spec's
// last tier, scaled by procs, becomes the shared one. Per-process trace IDs
// are remapped (orig×procs+p) so copies of the same guest code keep distinct
// identities; adoption binds a process to a peer's published ID instead. Processes are interleaved
// round-robin, with process p admitted after p×stagger total events
// (stagger ≤ 0 picks len(events)/(2×procs), which overlaps every process
// while still letting earlier ones warm the tier). The schedule is fixed,
// so results are deterministic. Costs are charged by costmodel.DefaultModel.
func ReplayShared(benchmark string, events []tracelog.Event, spec core.GraphSpec, procs, stagger int, o obs.Observer) (SharedResult, error) {
	if procs < 1 {
		return SharedResult{}, fmt.Errorf("sim: shared replay needs at least 1 process, got %d", procs)
	}
	if err := spec.Validate(); err != nil {
		return SharedResult{}, err
	}
	last := len(spec.Tiers) - 1
	if stagger <= 0 {
		stagger = len(events) / (2 * procs)
	}
	acc := costmodel.NewAccum(costmodel.DefaultModel)
	mgrObs := obs.Combine(CostObserver(acc), o)
	// The tier pools the N per-process persistent shares into one arena:
	// aggregate memory matches N isolated caches, but traces common across
	// processes occupy it once.
	spCap := uint64(procs) * uint64(float64(spec.TotalCapacity)*spec.Tiers[last].Frac)
	if spCap == 0 {
		spCap = 1
	}
	sp := core.NewSharedPersistent(spCap, mgrObs)

	res := SharedResult{
		Benchmark: benchmark,
		Procs:     procs,
		Overhead:  acc,
	}
	ps := make([]*sharedProc, procs)
	for p := range ps {
		mgr, err := core.NewGraphShared(spec, sp, p, mgrObs)
		if err != nil {
			return SharedResult{}, err
		}
		ps[p] = &sharedProc{
			mgr:     mgr,
			binding: make(map[uint64]uint64),
			dead:    make(map[uint64]bool),
		}
	}
	res.Config = ps[0].mgr.Name()
	res.CapacityBytes = spCap
	for range ps {
		for _, t := range spec.Tiers[:last] {
			res.CapacityBytes += uint64(float64(spec.TotalCapacity) * t.Frac)
		}
	}

	// One shared metadata table: every process replays the same stream, so
	// trace facts are common.
	type meta struct {
		size   uint32
		module uint16
		head   uint64
	}
	metas := make(map[uint64]meta, 1024)
	byModule := make(map[uint16][]uint64)
	for _, e := range events {
		if e.Kind == tracelog.KindCreate || e.Kind == tracelog.KindAdopt {
			if _, dup := metas[e.Trace]; dup {
				return res, fmt.Errorf("sim: duplicate %s of trace %d", e.Kind, e.Trace)
			}
			metas[e.Trace] = meta{size: e.Size, module: e.Module, head: e.Head}
			byModule[e.Module] = append(byModule[e.Module], e.Trace)
		}
	}

	ownID := func(p int, orig uint64) uint64 {
		return orig*uint64(procs) + uint64(p)
	}
	// place inserts process p's own copy of the trace into its nursery.
	place := func(p int, sp2 *sharedProc, orig uint64, m meta) {
		id := ownID(p, orig)
		sp2.binding[orig] = id
		_ = sp2.mgr.Insert(codecache.Fragment{
			ID: id, Size: uint64(m.size), Module: m.module, HeadAddr: m.head,
		})
	}
	// generate pays for a private copy of the trace and places it.
	generate := func(p int, sp2 *sharedProc, orig uint64, m meta) {
		acc.ChargeTraceGen(int(m.size))
		place(p, sp2, orig, m)
	}
	// adopt binds process p to a peer's copy of the trace when the shared
	// tier publishes one for the same guest code: an adoption, not a
	// generation.
	adopt := func(p int, sp2 *sharedProc, orig uint64, m meta) bool {
		id, ok := sp.ResidentKey(m.module, m.head)
		if !ok || !sp.Attach(p, id) {
			return false
		}
		sp2.binding[orig] = id
		res.Adoptions++
		return true
	}

	step := func(p int, sp2 *sharedProc, e tracelog.Event) error {
		switch e.Kind {
		case tracelog.KindCreate:
			m := metas[e.Trace]
			if adopt(p, sp2, e.Trace, m) {
				return nil
			}
			res.ColdCreates++
			generate(p, sp2, e.Trace, m)

		case tracelog.KindAdopt:
			// The logged process adopted this trace, so no generation was
			// paid. Without a resident peer copy to attach to, the process
			// places its own, still uncharged, as Replayer does.
			m := metas[e.Trace]
			if !adopt(p, sp2, e.Trace, m) {
				res.Adoptions++
				place(p, sp2, e.Trace, m)
			}

		case tracelog.KindAccess:
			m, ok := metas[e.Trace]
			if !ok {
				return fmt.Errorf("sim: access to unknown trace %d", e.Trace)
			}
			if sp2.dead[e.Trace] {
				return fmt.Errorf("sim: access to trace %d from unmapped module %d", e.Trace, m.module)
			}
			bound, ok := sp2.binding[e.Trace]
			if !ok {
				return fmt.Errorf("sim: access precedes create of trace %d", e.Trace)
			}
			res.Accesses++
			if sp2.mgr.Access(bound) {
				res.Hits++
				return nil
			}
			res.Misses++
			// The bound copy is gone. Before regenerating, check whether a
			// peer's copy survives in the shared tier.
			if adopt(p, sp2, e.Trace, m) {
				return nil
			}
			res.Regenerations++
			generate(p, sp2, e.Trace, m)

		case tracelog.KindUnmap:
			victims := sp2.mgr.DeleteModule(e.Module)
			res.ForcedDeletes += uint64(len(victims))
			for _, v := range victims {
				acc.ChargeEviction(int(v.Size))
			}
			for _, orig := range byModule[e.Module] {
				if _, known := sp2.binding[orig]; known {
					sp2.dead[orig] = true
					delete(sp2.binding, orig)
				}
			}

		case tracelog.KindPin:
			if bound, ok := sp2.binding[e.Trace]; ok {
				sp2.mgr.SetUndeletable(bound, true)
			}
		case tracelog.KindUnpin:
			if bound, ok := sp2.binding[e.Trace]; ok {
				sp2.mgr.SetUndeletable(bound, false)
			}
		case tracelog.KindEnd:
			// handled by the scheduler via event exhaustion
		default:
			return fmt.Errorf("sim: unknown event kind %d", e.Kind)
		}
		return nil
	}

	// Deterministic staggered round-robin over the processes.
	const quantum = 256
	remaining := procs
	admitted := 1
	var total int
	for remaining > 0 {
		for admitted < procs && total >= admitted*stagger {
			admitted++
		}
		progressed := false
		for p := 0; p < admitted; p++ {
			sp2 := ps[p]
			if sp2.done {
				continue
			}
			for q := 0; q < quantum; q++ {
				if sp2.idx >= len(events) {
					sp2.done = true
					remaining--
					break
				}
				e := events[sp2.idx]
				sp2.idx++
				if err := step(p, sp2, e); err != nil {
					return res, err
				}
				total++
				progressed = true
			}
		}
		if !progressed && admitted < procs {
			admitted++
		}
	}
	res.Shared = sp.Stats()
	return res, nil
}
