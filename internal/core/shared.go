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
	"fmt"
	"sync"

	"repro/internal/codecache"
	"repro/internal/obs"
)

// ShareKey identifies a trace's guest code across processes: traces from the
// same module at the same head address are the same code, whichever process
// generated them first.
type ShareKey struct {
	Module uint16
	Head   uint64
}

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
type SharedPersistent struct {
	mu    sync.Mutex
	arena *codecache.Arena
	o     obs.Observer

	// byKey maps guest code identity to the canonical resident trace: the
	// first promotion of a key publishes it; adoption resolves through it.
	byKey map[ShareKey]uint64
	// owners records which processes reference each resident trace. The
	// arena fragment's Refs field mirrors len(owners).
	owners map[uint64]map[int]struct{}

	stats SharedStats
}

// NewSharedPersistent creates a shared persistent tier of the given
// capacity, managed by the arena's pseudo-circular sweep (the paper's
// design). Lifecycle events are published to o (nil for none) stamped with
// the causing process.
func NewSharedPersistent(capacity uint64, o obs.Observer) *SharedPersistent {
	arena := codecache.New(capacity)
	arena.SetObserver(o, obs.LevelPersistent)
	return &SharedPersistent{
		arena:  arena,
		o:      o,
		byKey:  make(map[ShareKey]uint64),
		owners: make(map[uint64]map[int]struct{}),
	}
}

// dropStateLocked forgets a trace's ownership and publication state. Called
// after the fragment left the arena (eviction, drain).
func (sp *SharedPersistent) dropStateLocked(f codecache.Fragment) {
	delete(sp.owners, f.ID)
	k := ShareKey{Module: f.Module, Head: f.HeadAddr}
	if sp.byKey[k] == f.ID {
		delete(sp.byKey, k)
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
// as needed.
func (sp *SharedPersistent) insertLocked(procs []int, f codecache.Fragment, causing int) error {
	f.Undeletable = false
	f.Refs = uint32(len(procs))
	err := sp.arena.Insert(f, func(v codecache.Fragment) {
		sp.evictLocked(v, causing)
	})
	if err != nil {
		return err
	}
	set := make(map[int]struct{}, len(procs))
	for _, p := range procs {
		set[p] = struct{}{}
	}
	sp.owners[f.ID] = set
	k := ShareKey{Module: f.Module, Head: f.HeadAddr}
	if _, published := sp.byKey[k]; !published {
		sp.byKey[k] = f.ID
	}
	return nil
}

// attachLocked adds proc as an owner of a resident trace.
func (sp *SharedPersistent) attachLocked(proc int, id uint64) bool {
	set := sp.owners[id]
	if set == nil {
		return false
	}
	if _, dup := set[proc]; dup {
		return true
	}
	set[proc] = struct{}{}
	sp.arena.Retain(id)
	return true
}

// Promote moves a probation victim from the given process into the shared
// tier. If the identical trace (same ID) is already resident — another owner
// re-promoted it first — the promotion merges: proc is attached as an owner
// and nothing is inserted. The error, when non-nil, means the trace cannot
// live in the tier (too big) and must die in the caller.
func (sp *SharedPersistent) Promote(proc int, f codecache.Fragment) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.arena.Contains(f.ID) {
		sp.attachLocked(proc, f.ID)
		sp.stats.Merged++
		return nil
	}
	if err := sp.insertLocked([]int{proc}, f, proc); err != nil {
		return err
	}
	sp.stats.Promotions++
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
	id, ok := sp.byKey[ShareKey{Module: module, Head: head}]
	return id, ok
}

// ResidentFragment returns a copy of the canonical resident fragment
// published for a code identity, if any. Adopting services check its Size
// against the trace they are about to generate: a size mismatch means the
// published trace came from a different build of the module and must not be
// shared.
func (sp *SharedPersistent) ResidentFragment(module uint16, head uint64) (codecache.Fragment, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	id, ok := sp.byKey[ShareKey{Module: module, Head: head}]
	if !ok {
		return codecache.Fragment{}, false
	}
	f, ok := sp.arena.Lookup(id)
	if !ok {
		return codecache.Fragment{}, false
	}
	return *f, true
}

// AttachWarm adds proc as an owner of a resident trace without counting an
// adoption: it is the keep-warm reference a resident service takes on traces
// it wants to outlive their publishing sessions, not a cross-process
// discovery.
func (sp *SharedPersistent) AttachWarm(proc int, id uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.attachLocked(proc, id)
}

// Attach adds proc as an owner of a resident trace (an adoption: the process
// will execute the shared trace instead of generating its own). It reports
// whether the trace was resident.
func (sp *SharedPersistent) Attach(proc int, id uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !sp.attachLocked(proc, id) {
		return false
	}
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
// KindUnmap event each.
func (sp *SharedPersistent) UnmapModule(proc int, m uint16) []codecache.Fragment {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	// Collect victims first: deleting mutates the arena's node list. Address
	// order keeps multi-process runs deterministic under a fixed schedule.
	var drain []uint64
	for _, f := range sp.arena.Fragments() {
		if f.Module != m {
			continue
		}
		set := sp.owners[f.ID]
		if _, owned := set[proc]; !owned {
			continue
		}
		delete(set, proc)
		sp.arena.Release(f.ID)
		if len(set) == 0 {
			drain = append(drain, f.ID)
		}
	}
	var out []codecache.Fragment
	for _, id := range drain {
		f, err := sp.arena.Delete(id, true)
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
	return len(sp.owners[id])
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
// owned trace is resident with a Refs count matching its owner set, and
// every published key points at a resident trace of that key. Tests call
// this.
func (sp *SharedPersistent) CheckInvariants() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err := sp.arena.CheckInvariants(); err != nil {
		return err
	}
	for id, set := range sp.owners {
		f, ok := sp.arena.Lookup(id)
		if !ok {
			return fmt.Errorf("core: shared owners track non-resident trace %d", id)
		}
		if int(f.Refs) != len(set) {
			return fmt.Errorf("core: shared trace %d Refs=%d but %d owners", id, f.Refs, len(set))
		}
	}
	for k, id := range sp.byKey {
		f, ok := sp.arena.Lookup(id)
		if !ok {
			return fmt.Errorf("core: shared key %+v published for non-resident trace %d", k, id)
		}
		if f.Module != k.Module || f.HeadAddr != k.Head {
			return fmt.Errorf("core: shared key %+v published for mismatched trace %d (%d, %#x)", k, id, f.Module, f.HeadAddr)
		}
	}
	return nil
}
