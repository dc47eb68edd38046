// Package policy implements the paper's *local* code-cache management
// policies (§4): replacement disciplines that operate within a single cache.
// The pseudo-circular policy of §4.3 is the one the generational design
// builds on; LRU, flush-when-full and preemptive flushing (Dynamo's scheme)
// are the baselines the paper's prior work compared. An unbounded cache is
// pseudo-circular over an arena too large to fill (2^40 bytes).
package policy

import (
	"cmp"
	"errors"
	"slices"

	"repro/internal/codecache"
	"repro/internal/idtab"
)

// Local is a replacement policy for one code-cache arena. Implementations
// choose victims when an insertion does not fit. Every capacity-driven
// victim is reported through onEvict.
type Local interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Insert places f into a, evicting resident fragments as the policy
	// dictates. It returns codecache.ErrNoSpace when no legal eviction
	// sequence frees enough room, and codecache.ErrTooBig when f can never
	// fit.
	Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error
	// OnAccess lets the policy maintain recency bookkeeping. The arena has
	// already recorded the access.
	OnAccess(a *codecache.Arena, id uint64)
}

// Adopter is implemented by policies that can prime their bookkeeping from
// an arena's current residents. The online policy selector installs fresh
// policy instances mid-run; without adoption the new policy would see a full
// cache it knows nothing about and make arbitrary victim choices until its
// own bookkeeping catches up.
type Adopter interface {
	// Adopt primes the policy from a's residents. It is called once, before
	// the policy serves its first Insert or OnAccess for a.
	Adopt(a *codecache.Arena)
}

// PseudoCircular is the paper's §4.3 policy: a circular (FIFO) sweep that
// resets past undeletable fragments and absorbs program-forced holes into
// its path. It delegates entirely to the arena's built-in sweep.
type PseudoCircular struct{}

// Name implements Local.
func (PseudoCircular) Name() string { return "pseudo-circular" }

// Insert implements Local.
func (PseudoCircular) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	return a.Insert(f, onEvict)
}

// OnAccess implements Local.
func (PseudoCircular) OnAccess(*codecache.Arena, uint64) {}

// LRU evicts the least-recently-used fragment until the insertion fits
// somewhere. The paper's prior work found it competitive on miss rate but
// fragmentation-prone and expensive; it is here as a baseline and as the
// alternate local policy for the generational ablation.
//
// The recency order is an intrusive list threaded through a table indexed by
// trace ID, so an access and an eviction each cost O(1). The arena stamps a
// unique LastAccess on every placement and access, and every caller that
// accesses an LRU tier's arena then calls OnAccess, so the list orders the
// residents exactly by LastAccess.
type LRU struct {
	// links holds each listed trace's place in the list, by trace ID.
	links idtab.Table[lruLink]

	// oldest and newest are the list's ends; n counts linked entries.
	oldest, newest uint64
	n              int
}

// lruLink is one trace's place in the recency list.
type lruLink struct {
	prev, next uint64 // neighbours toward the oldest and newest ends
	linked     bool
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Local.
func (l *LRU) Name() string { return "lru" }

// push links id at the newest end, first unlinking it if it is listed.
func (l *LRU) push(id uint64) {
	e := l.links.Ref(id)
	if e.linked {
		l.unlink(id, e)
	}
	if l.n == 0 {
		l.oldest = id
	} else {
		l.links.Ref(l.newest).next = id
		e.prev = l.newest
	}
	l.newest = id
	e.linked = true
	l.n++
}

// unlink removes id, whose entry is e, from the list.
func (l *LRU) unlink(id uint64, e *lruLink) {
	if id == l.oldest {
		l.oldest = e.next
	} else {
		l.links.Ref(e.prev).next = e.next
	}
	if id == l.newest {
		l.newest = e.prev
	} else {
		l.links.Ref(e.next).prev = e.prev
	}
	e.linked = false
	l.n--
}

// OnAccess implements Local: the trace becomes the most recent.
func (l *LRU) OnAccess(a *codecache.Arena, id uint64) {
	if a.Contains(id) {
		l.push(id)
	}
}

// Adopt implements Adopter: link the residents in LastAccess order so a
// freshly installed LRU ranks the existing cache contents by their true
// recency.
func (l *LRU) Adopt(a *codecache.Arena) {
	var rs []codecache.Fragment
	a.Visit(func(f *codecache.Fragment) bool {
		rs = append(rs, *f)
		return true
	})
	slices.SortFunc(rs, func(x, y codecache.Fragment) int { return cmp.Compare(x.LastAccess, y.LastAccess) })
	for _, f := range rs {
		l.push(f.ID)
	}
}

// Insert implements Local.
func (l *LRU) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if err := insertEvicting(a, f, onEvict, l); err != nil {
		return err
	}
	l.push(f.ID)
	return nil
}

// victim walks the list from the oldest end and takes the first evictable
// resident off it. Entries whose traces have left the arena are unlinked on
// the way. Pinned and process-referenced residents are stepped past and keep
// their place, so a lifted pin or a released reference restores the trace's
// standing; they count as pinned because Delete(id, false) refuses them.
func (l *LRU) victim(a *codecache.Arena) (uint64, bool) {
	id := l.oldest
	for left := l.n; left > 0; left-- {
		e := l.links.Ref(id)
		next := e.next
		f, ok := a.Lookup(id)
		switch {
		case !ok:
			l.drop(id, e)
		case !f.Undeletable && f.Refs == 0:
			l.drop(id, e)
			return id, true
		}
		id = next
	}
	return 0, false
}

// drop unlinks id for good and deletes its entry, so the table's map holds
// only listed traces.
func (l *LRU) drop(id uint64, e *lruLink) {
	l.unlink(id, e)
	l.links.Delete(id)
}

// evictor is a policy that picks its own victims for insertEvicting.
type evictor interface {
	// victim returns an evictable resident of a, or false when none is left.
	victim(a *codecache.Arena) (uint64, bool)
}

// insertEvicting is the insert loop LRU and TRRIP share. A fragment the
// arena would refuse (zero-sized, ErrTooBig, ErrDup) is refused before
// anything is evicted; otherwise the policy's victims go until the largest
// free run fits f, and f is placed first fit once.
func insertEvicting(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment), p evictor) error {
	if f.Size == 0 || f.Size > a.Capacity() || a.Contains(f.ID) {
		return a.PlaceFirstFit(f) // returns the arena's refusal
	}
	for a.LargestFreeRun() < f.Size {
		id, ok := p.victim(a)
		if !ok {
			return codecache.ErrNoSpace
		}
		v, err := a.Delete(id, false)
		if err != nil {
			return err
		}
		if onEvict != nil {
			onEvict(v)
		}
	}
	return a.PlaceFirstFit(f)
}

// FlushWhenFull deletes every deletable fragment when an insertion fails,
// then retries. This is the bluntest policy: cheap bookkeeping, terrible
// retention.
type FlushWhenFull struct {
	// Flushes counts how many whole-cache flushes have occurred.
	Flushes uint64
}

// Name implements Local.
func (p *FlushWhenFull) Name() string { return "flush-when-full" }

// OnAccess implements Local.
func (p *FlushWhenFull) OnAccess(*codecache.Arena, uint64) {}

// Insert implements Local.
func (p *FlushWhenFull) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if f.Size > a.Capacity() {
		return codecache.ErrTooBig
	}
	if err := a.PlaceFirstFit(f); err == nil {
		return nil
	} else if !errors.Is(err, codecache.ErrNoSpace) {
		return err
	}
	p.Flushes++
	a.Flush(onEvict)
	return a.PlaceFirstFit(f)
}

// PreemptiveFlush approximates Dynamo's preemptive flushing (§2): it watches
// the trace-creation rate and flushes the cache when a spike suggests a
// program phase change, on the theory that the old working set is dead. It
// also flushes when full, like FlushWhenFull.
type PreemptiveFlush struct {
	// Window is how many recent insertions the rate estimate covers.
	Window int
	// SpikeFactor is how much faster than the long-term insertion rate the
	// recent rate must be to signal a phase change.
	SpikeFactor float64

	// Flushes counts phase-change flushes; FullFlushes counts flushes
	// forced by a failed insertion.
	Flushes     uint64
	FullFlushes uint64

	recent  []uint64 // clock values of the last Window inserts
	inserts uint64
	start   uint64
	started bool
}

// NewPreemptiveFlush returns a policy with the default window (32) and
// spike factor (4).
func NewPreemptiveFlush() *PreemptiveFlush {
	return &PreemptiveFlush{Window: 32, SpikeFactor: 4}
}

// Name implements Local.
func (p *PreemptiveFlush) Name() string { return "preemptive-flush" }

// OnAccess implements Local.
func (p *PreemptiveFlush) OnAccess(*codecache.Arena, uint64) {}

// Insert implements Local.
func (p *PreemptiveFlush) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if f.Size > a.Capacity() {
		return codecache.ErrTooBig
	}
	now := a.Clock()
	if !p.started {
		p.start = now
		p.started = true
	}
	p.inserts++
	p.recent = append(p.recent, now)
	if len(p.recent) > p.Window {
		p.recent = p.recent[len(p.recent)-p.Window:]
	}
	if p.phaseChange(now) {
		p.Flushes++
		a.Flush(onEvict)
		p.recent = p.recent[:0]
	}
	if err := a.PlaceFirstFit(f); err == nil {
		return nil
	} else if !errors.Is(err, codecache.ErrNoSpace) {
		return err
	}
	p.FullFlushes++
	a.Flush(onEvict)
	return a.PlaceFirstFit(f)
}

// phaseChange reports whether the recent insertion rate is SpikeFactor times
// the long-term rate.
func (p *PreemptiveFlush) phaseChange(now uint64) bool {
	if len(p.recent) < p.Window || p.inserts < uint64(2*p.Window) {
		return false
	}
	total := now - p.start
	if total == 0 {
		return false
	}
	recentSpan := now - p.recent[0]
	if recentSpan == 0 {
		recentSpan = 1
	}
	longRate := float64(p.inserts) / float64(total)
	recentRate := float64(len(p.recent)) / float64(recentSpan)
	return recentRate > p.SpikeFactor*longRate
}

// CircularFirstFit is the design alternative §4.3 explicitly rejects: before
// evicting at the cursor, try to place the new trace into an existing hole
// (left by program-forced deletions). The paper argues this complicates the
// design and can hurt temporal locality; it is implemented here so the
// ablation can measure that trade-off.
type CircularFirstFit struct{}

// Name implements Local.
func (p *CircularFirstFit) Name() string { return "circular-first-fit" }

// OnAccess implements Local.
func (p *CircularFirstFit) OnAccess(*codecache.Arena, uint64) {}

// Insert implements Local.
func (p *CircularFirstFit) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if err := a.PlaceFirstFit(f); err == nil {
		return nil
	} else if !errors.Is(err, codecache.ErrNoSpace) {
		return err
	}
	return a.Insert(f, onEvict)
}
