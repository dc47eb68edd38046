// The shared persistent tier: the paper's closing observation is that
// long-lived traces dominate cache value, and later work on process-shared
// code caches (ShareJIT) exploits exactly that — processes running the same
// modules converge on largely the same persistent population, so one shared
// persistent generation can serve all of them. SharedPersistent is that
// back-end tier: a single refcounted arena, published trace identities keyed
// by (module, head address), and owner-aware unmapping where a module unmap
// in one process only drops that process's references; the shared trace dies
// when its reference count drains to zero.

package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/codecache"
	"repro/internal/obs"
)

// SharedStats aggregates shared-tier activity across all attached processes.
type SharedStats struct {
	Promotions   uint64 // fragments promoted into the shared tier
	Merged       uint64 // promotions of a trace already resident (another owner attached)
	Adoptions    uint64 // cross-process lookups that attached a new owner
	Evicted      uint64 // capacity-driven evictions
	EvictedBytes uint64
	Drained      uint64 // traces deleted because their last owner unmapped
	DrainedBytes uint64
}

// SharedPersistent is a persistent-generation cache shared by several
// front-end processes. All methods are safe for concurrent use; the
// deterministic round-robin schedules used by the experiments serialize
// calls anyway, but concurrently running processes (and the race detector)
// see a consistent tier.
//
// A trace's guest code is identified across processes by its module and
// head address: traces from the same module at the same head are the same
// code, whichever process generated them first.
type SharedPersistent struct {
	mu    sync.Mutex
	arena *codecache.Arena
	o     obs.Observer

	// traces holds the bookkeeping of every resident trace, by trace ID;
	// modules indexes the same entries by module.
	traces  map[uint64]*sharedTrace
	modules []sharedModule

	stats SharedStats
}

// sharedModule is the tier's index of one module.
type sharedModule struct {
	// resident lists the module's resident traces, so an unmap visits only
	// them instead of scanning the tier.
	resident []*sharedTrace
	// published maps a head address to the canonical resident trace of that
	// code: the first promotion of a (module, head) identity publishes it;
	// adoption resolves through it.
	published map[uint64]*sharedTrace
}

// sharedTrace is the tier's bookkeeping for one resident trace.
type sharedTrace struct {
	id, size uint64
	// owners lists the processes referencing the trace, each once; the arena
	// fragment's Refs field mirrors len(owners). A trace has few owners (its
	// publisher, the keep-warm owner, the processes running its module right
	// now), so a short slice serves where a set would cost a map per trace.
	owners []int
	// slot is the entry's index in its module's resident list.
	slot int
}

// NewSharedPersistent creates a shared persistent tier of the given
// capacity, managed by the arena's pseudo-circular sweep (the paper's
// design). Lifecycle events are published to o (nil for none) stamped with
// the causing process.
func NewSharedPersistent(capacity uint64, o obs.Observer) *SharedPersistent {
	return &SharedPersistent{
		arena:  codecache.New(capacity),
		o:      o,
		traces: make(map[uint64]*sharedTrace),
	}
}

// publishedLocked returns the canonical resident trace of a code identity,
// or nil.
func (sp *SharedPersistent) publishedLocked(module uint16, head uint64) *sharedTrace {
	if int(module) >= len(sp.modules) {
		return nil
	}
	return sp.modules[module].published[head]
}

// dropStateLocked forgets a trace's ownership, module-index entry and
// publication. Called after the fragment left the arena (eviction, drain).
func (sp *SharedPersistent) dropStateLocked(f codecache.Fragment) {
	e := sp.traces[f.ID]
	delete(sp.traces, f.ID)
	m := &sp.modules[f.Module]
	last := m.resident[len(m.resident)-1]
	m.resident[e.slot], last.slot = last, e.slot
	m.resident[len(m.resident)-1] = nil
	m.resident = m.resident[:len(m.resident)-1]
	if m.published[f.HeadAddr] == e {
		delete(m.published, f.HeadAddr)
	}
}

// evictLocked is the capacity-eviction callback: the victim leaves the
// system no matter how many processes referenced it (capacity pressure wins;
// owners rediscover the loss as a conflict miss).
func (sp *SharedPersistent) evictLocked(f codecache.Fragment, proc int) {
	sp.dropStateLocked(f)
	sp.stats.Evicted++
	sp.stats.EvictedBytes += f.Size
	obs.Emit(sp.o, obs.Event{Kind: obs.KindEvict, Trace: f.ID, Size: f.Size, Module: f.Module, From: LevelPersistent, Proc: proc})
}

// insertLocked places f, owned by the given processes, evicting circularly
// as needed, files it under its module, and publishes it if its identity
// has no resident trace yet.
func (sp *SharedPersistent) insertLocked(procs []int, f codecache.Fragment, causing int) error {
	// Room for one more owner: a publication is usually joined by the
	// keep-warm owner or an adopter.
	e := &sharedTrace{id: f.ID, size: f.Size, owners: make([]int, 0, len(procs)+1)}
	for _, p := range procs {
		if !slices.Contains(e.owners, p) {
			e.owners = append(e.owners, p)
		}
	}
	f.Undeletable = false
	f.Refs = uint32(len(e.owners))
	err := sp.arena.Insert(f, func(v codecache.Fragment) {
		sp.evictLocked(v, causing)
	})
	if err != nil {
		return err
	}
	sp.traces[f.ID] = e
	if int(f.Module) >= len(sp.modules) {
		sp.modules = append(sp.modules, make([]sharedModule, int(f.Module)+1-len(sp.modules))...)
	}
	m := &sp.modules[f.Module]
	e.slot = len(m.resident)
	m.resident = append(m.resident, e)
	if m.published == nil {
		m.published = make(map[uint64]*sharedTrace)
	}
	if m.published[f.HeadAddr] == nil {
		m.published[f.HeadAddr] = e
	}
	return nil
}

// attachLocked adds proc as an owner of a resident trace.
func (sp *SharedPersistent) attachLocked(proc int, e *sharedTrace) {
	if !slices.Contains(e.owners, proc) {
		e.owners = append(e.owners, proc)
		sp.arena.Retain(e.id)
	}
}

// Promote moves a probation victim from the given process into the shared
// tier. If the identical trace (same ID) is already resident — another owner
// re-promoted it first — the promotion merges: proc is attached as an owner
// and nothing is inserted. Either way the keep owners are attached too,
// without counting an adoption: that is the keep-warm reference a resident
// service takes on the traces it wants to outlive their publishing sessions,
// taken under the same lock, so no eviction can slip in between. The error,
// when non-nil, means the trace cannot live in the tier (too big) and must
// die in the caller; nobody is attached then.
func (sp *SharedPersistent) Promote(proc int, f codecache.Fragment, keep ...int) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	e := sp.traces[f.ID]
	if e != nil {
		sp.attachLocked(proc, e)
		sp.stats.Merged++
	} else {
		if err := sp.insertLocked([]int{proc}, f, proc); err != nil {
			return err
		}
		sp.stats.Promotions++
		e = sp.traces[f.ID]
	}
	for _, k := range keep {
		sp.attachLocked(k, e)
	}
	return nil
}

// InsertWarm places a persisted snapshot record directly into the tier,
// owned by the given processes (possibly none: processes attach themselves
// at startup). It is the warm-start path; normal insertion goes through
// Promote.
func (sp *SharedPersistent) InsertWarm(procs []int, f codecache.Fragment) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err := sp.insertLocked(procs, f, 0); err != nil {
		return err
	}
	obs.Emit(sp.o, obs.Event{Kind: obs.KindInsert, Trace: f.ID, Size: f.Size, Module: f.Module, To: LevelPersistent})
	return nil
}

// Access records an execution of the trace by the given process and reports
// residency.
func (sp *SharedPersistent) Access(proc int, id uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	// Accesses are not per-owner state; proc documents intent.
	return sp.arena.Access(id)
}

// Contains reports residency without touching access state.
func (sp *SharedPersistent) Contains(id uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.arena.Contains(id)
}

// ResidentKey returns the canonical resident trace published for a code
// identity, if any.
func (sp *SharedPersistent) ResidentKey(module uint16, head uint64) (uint64, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if e := sp.publishedLocked(module, head); e != nil {
		return e.id, true
	}
	return 0, false
}

// ResidentFragment returns a copy of the canonical resident fragment
// published for a code identity, if any. Adopting services check its Size
// against the trace they are about to generate: a size mismatch means the
// published trace came from a different build of the module and must not be
// shared.
func (sp *SharedPersistent) ResidentFragment(module uint16, head uint64) (codecache.Fragment, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	e := sp.publishedLocked(module, head)
	if e == nil {
		return codecache.Fragment{}, false
	}
	f, _ := sp.arena.Lookup(e.id)
	return *f, true
}

// Adopt attaches proc to the trace published for a code identity if one is
// resident and its size matches, in one locked call, and returns the
// adopted trace's ID. A size mismatch means the published trace came from a
// different build of the module, not the same code, so it is not shared.
// Adoptions count exactly as in Attach, a repeated owner included.
func (sp *SharedPersistent) Adopt(proc int, module uint16, head, size uint64) (uint64, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	e := sp.publishedLocked(module, head)
	if e == nil || e.size != size {
		return 0, false
	}
	sp.attachLocked(proc, e)
	sp.stats.Adoptions++
	return e.id, true
}

// Attach adds proc as an owner of a resident trace (an adoption: the process
// will execute the shared trace instead of generating its own). It reports
// whether the trace was resident.
func (sp *SharedPersistent) Attach(proc int, id uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	e := sp.traces[id]
	if e == nil {
		return false
	}
	sp.attachLocked(proc, e)
	sp.stats.Adoptions++
	return true
}

// SetUndeletable pins or unpins a resident trace.
func (sp *SharedPersistent) SetUndeletable(id uint64, pinned bool) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.arena.SetUndeletable(id, pinned)
}

// UnmapModule performs the owner-aware half of a program-forced eviction:
// process proc unmapped module m, so proc's references to the module's
// shared traces are dropped. Traces still referenced by other processes stay
// resident (those processes keep executing them); traces whose last
// reference drained are deleted and returned, in address order, with one
// KindUnmap event each. It visits only the module's own traces.
func (sp *SharedPersistent) UnmapModule(proc int, m uint16) []codecache.Fragment {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if int(m) >= len(sp.modules) {
		return nil
	}
	// Collect victims first: deleting reorders the module's index. Address
	// order keeps multi-process runs deterministic under a fixed schedule.
	type victim struct{ off, id uint64 }
	var drain []victim
	for _, e := range sp.modules[m].resident {
		i := slices.Index(e.owners, proc)
		if i < 0 {
			continue
		}
		e.owners = slices.Delete(e.owners, i, i+1)
		sp.arena.Release(e.id)
		if len(e.owners) == 0 {
			off, _ := sp.arena.Offset(e.id)
			drain = append(drain, victim{off, e.id})
		}
	}
	slices.SortFunc(drain, func(a, b victim) int { return cmp.Compare(a.off, b.off) })
	var out []codecache.Fragment
	for _, v := range drain {
		f, err := sp.arena.Delete(v.id, true)
		if err != nil {
			continue
		}
		sp.dropStateLocked(f)
		sp.stats.Drained++
		sp.stats.DrainedBytes += f.Size
		out = append(out, f)
		obs.Emit(sp.o, obs.Event{Kind: obs.KindUnmap, Trace: f.ID, Size: f.Size, Module: f.Module, From: LevelPersistent, Proc: proc})
	}
	return out
}

// Owners returns how many processes currently reference a resident trace.
func (sp *SharedPersistent) Owners(id uint64) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if e := sp.traces[id]; e != nil {
		return len(e.owners)
	}
	return 0
}

// Capacity returns the tier's capacity in bytes.
func (sp *SharedPersistent) Capacity() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.arena.Capacity()
}

// Used returns the tier's occupied bytes.
func (sp *SharedPersistent) Used() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.arena.Used()
}

// Stats returns a copy of the tier's counters.
func (sp *SharedPersistent) Stats() SharedStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.stats
}

// Fragments returns copies of the resident traces in address order (the
// cross-run persistence snapshot reads these).
func (sp *SharedPersistent) Fragments() []codecache.Fragment {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	frags := sp.arena.Fragments()
	out := make([]codecache.Fragment, 0, len(frags))
	for _, f := range frags {
		out = append(out, *f)
	}
	return out
}

// CheckInvariants validates the tier: the arena is structurally sound, every
// tracked trace is resident with its size and a Refs count matching its
// distinct owners, the module index holds exactly the resident traces, each
// under its own module, and every published identity points at a resident
// trace of that identity. Tests call this.
func (sp *SharedPersistent) CheckInvariants() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err := sp.arena.CheckInvariants(); err != nil {
		return err
	}
	for id, e := range sp.traces {
		f, ok := sp.arena.Lookup(id)
		if !ok {
			return fmt.Errorf("core: shared owners track non-resident trace %d", id)
		}
		if e.id != id || e.size != f.Size {
			return fmt.Errorf("core: shared trace %d tracked as trace %d of %d bytes, resident with %d", id, e.id, e.size, f.Size)
		}
		if int(f.Refs) != len(e.owners) {
			return fmt.Errorf("core: shared trace %d Refs=%d but %d owners", id, f.Refs, len(e.owners))
		}
		for i, p := range e.owners {
			if slices.Contains(e.owners[i+1:], p) {
				return fmt.Errorf("core: shared trace %d lists owner %d twice", id, p)
			}
		}
		if int(f.Module) >= len(sp.modules) || e.slot >= len(sp.modules[f.Module].resident) || sp.modules[f.Module].resident[e.slot] != e {
			return fmt.Errorf("core: shared trace %d of module %d missing from the module index", id, f.Module)
		}
	}
	indexed := 0
	for m, mod := range sp.modules {
		for i, e := range mod.resident {
			if e.slot != i || sp.traces[e.id] != e {
				return fmt.Errorf("core: shared module %d index slot %d holds stale trace %d", m, i, e.id)
			}
		}
		indexed += len(mod.resident)
		for head, e := range mod.published {
			f, ok := sp.arena.Lookup(e.id)
			if !ok || sp.traces[e.id] != e {
				return fmt.Errorf("core: shared identity (%d, %#x) published for non-resident trace %d", m, head, e.id)
			}
			if int(f.Module) != m || f.HeadAddr != head {
				return fmt.Errorf("core: shared identity (%d, %#x) published for mismatched trace %d (%d, %#x)", m, head, e.id, f.Module, f.HeadAddr)
			}
		}
	}
	if indexed != len(sp.traces) || indexed != sp.arena.Len() {
		return fmt.Errorf("core: shared module index holds %d traces, owners track %d, arena holds %d",
			indexed, len(sp.traces), sp.arena.Len())
	}
	return nil
}
