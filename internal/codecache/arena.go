// Package codecache implements the byte-granular storage that backs every
// code cache in the reproduction. An Arena tracks variable-sized code
// fragments (traces), the free space between them, and a pseudo-circular
// eviction cursor, and supports the two complications the paper calls out in
// §4.2: undeletable traces (the cursor resets to just past them, §4.3) and
// program-forced evictions (unmapped modules punch holes that are absorbed
// back into the circular sweep).
//
// An arena publishes no events: it returns its victims, and the manager that
// owns it (internal/core) reports every insert, eviction, promotion, unmap
// and resize on the obs stream.
package codecache

import (
	"errors"
	"fmt"

	"repro/internal/idtab"
)

// Fragment describes one cached code trace.
type Fragment struct {
	ID          uint64 // trace identity, stable across caches
	Size        uint64 // encoded size in bytes
	Module      uint16 // module the trace was generated from
	HeadAddr    uint64 // original address of the trace head
	Undeletable bool   // pinned (e.g. suspended in an exception handler)

	// Refs counts the front-end processes currently referencing the fragment
	// in a shared back-end tier. 0 means the fragment is process-private.
	// Policy-driven Delete refuses referenced fragments (like pins);
	// capacity-driven eviction still removes them — capacity pressure wins,
	// and the referencing processes rediscover the loss as a conflict miss.
	Refs uint32

	// AccessCount counts Access calls since the fragment entered this
	// arena; it resets on every relocation, which is what the probation
	// cache's promotion test wants.
	AccessCount uint64
	// InsertSeq is the arena's logical time at insertion.
	InsertSeq uint64
	// LastAccess is the arena's logical time at the most recent access.
	LastAccess uint64
}

// Errors returned by Insert and Place.
var (
	ErrTooBig  = errors.New("codecache: fragment larger than arena capacity")
	ErrNoSpace = errors.New("codecache: no evictable space for fragment")
	ErrDup     = errors.New("codecache: fragment ID already present")
)

// ErrResizePinned is returned by Resize when a shrink would have to remove an
// undeletable fragment. The arena is left unmodified.
var ErrResizePinned = errors.New("codecache: resize blocked by undeletable fragment")

// node is one segment of the arena's address range. Nodes tile [0, capacity)
// exactly: every byte belongs to exactly one node, either a fragment or free
// space. The fragment lives inside the node (fragVal); frag points at it
// when the node is occupied and is nil for free space. Nodes removed by
// merging go onto the arena's free list and are reused, so steady-state
// insert/evict churn allocates nothing.
type node struct {
	prev, next *node
	off, size  uint64
	frag       *Fragment // nil for free space, &fragVal otherwise
	fragVal    Fragment

	// Free-run index links (freeindex.go), meaningful only for free nodes of
	// an indexed arena: treap children and parent, the treap priority, and
	// the largest free run in this node's subtree.
	left, right, up *node
	prio            uint32
	maxRun          uint64
}

// Arena is a single code cache. It is not safe for concurrent use; the
// dynamic optimizer serializes cache operations per thread, as DynamoRIO
// does.
//
// Fragment pointers returned by Lookup and Fragments are valid until the
// next mutating call (Insert, Delete, DeleteModule, Flush); copy the value
// to keep it longer. Every in-repo consumer copies immediately.
type Arena struct {
	capacity uint64
	head     *node
	cursor   *node // pseudo-circular insertion/eviction point

	// byID indexes the resident nodes by fragment ID; count tracks residents.
	byID  idtab.Table[*node]
	count int

	used  uint64
	clock uint64

	// pool is the free list of recycled nodes, linked through next.
	pool *node

	// root is the free-run index (freeindex.go), maintained only once
	// indexed is set by the first first-fit query; prio is its priority
	// generator's state.
	root    *node
	indexed bool
	prio    uint32
}

// New creates an arena with the given capacity in bytes.
func New(capacity uint64) *Arena {
	if capacity == 0 {
		panic("codecache: zero-capacity arena")
	}
	n := &node{off: 0, size: capacity}
	return &Arena{
		capacity: capacity,
		head:     n,
		cursor:   n,
	}
}

// lookupNode returns the resident node for an ID, or nil.
func (a *Arena) lookupNode(id uint64) *node { return a.byID.Get(id) }

// indexNode records n as the resident node for an ID.
func (a *Arena) indexNode(id uint64, n *node) {
	a.byID.Set(id, n)
	a.count++
}

// unindexNode forgets the resident node for an ID.
func (a *Arena) unindexNode(id uint64) {
	a.byID.Delete(id)
	a.count--
}

// allocNode takes a node from the free list, or the heap when it is empty.
func (a *Arena) allocNode() *node {
	if n := a.pool; n != nil {
		a.pool = n.next
		*n = node{}
		return n
	}
	return &node{}
}

// recycleNode pushes a merged-away node onto the free list.
func (a *Arena) recycleNode(n *node) {
	n.prev, n.frag = nil, nil
	n.next = a.pool
	a.pool = n
}

// Capacity returns the arena's capacity in bytes.
func (a *Arena) Capacity() uint64 { return a.capacity }

// Used returns the bytes currently occupied by fragments.
func (a *Arena) Used() uint64 { return a.used }

// Free returns the bytes currently unoccupied.
func (a *Arena) Free() uint64 { return a.capacity - a.used }

// Len returns the number of fragments resident.
func (a *Arena) Len() int { return a.count }

// Clock returns the arena's logical time (advances on insert and access).
func (a *Arena) Clock() uint64 { return a.clock }

// Lookup returns the resident fragment with the given ID. The pointer is
// valid until the arena's next mutating call.
func (a *Arena) Lookup(id uint64) (*Fragment, bool) {
	n := a.lookupNode(id)
	if n == nil {
		return nil, false
	}
	return n.frag, true
}

// Contains reports whether the fragment with the given ID is resident.
func (a *Arena) Contains(id uint64) bool {
	return a.lookupNode(id) != nil
}

// Offset returns the arena offset of the fragment with the given ID.
func (a *Arena) Offset(id uint64) (uint64, bool) {
	n := a.lookupNode(id)
	if n == nil {
		return 0, false
	}
	return n.off, true
}

// Access records an execution of the fragment with the given ID, bumping
// its access count and recency. It reports whether the fragment is resident.
// This is the dispatcher's steady-state path: for the sequentially assigned
// IDs the engine produces, it is one bounds check and one slice load.
func (a *Arena) Access(id uint64) bool {
	n := a.byID.Get(id)
	if n == nil {
		return false
	}
	a.clock++
	n.frag.AccessCount++
	n.frag.LastAccess = a.clock
	return true
}

// AccessRun records hits for the longest leading prefix of ids resident in
// this arena and returns its length, bumping the clock and the per-fragment
// bookkeeping exactly as that many Access calls would. The first id not
// resident here ends the prefix unprocessed — the caller decides where that
// id lives. Batching the run keeps the clock in a register across the whole
// prefix.
func (a *Arena) AccessRun(ids []uint64) int {
	clock := a.clock
	done := 0
	for _, id := range ids {
		n := a.byID.Get(id)
		if n == nil {
			break
		}
		clock++
		n.frag.AccessCount++
		n.frag.LastAccess = clock
		done++
	}
	a.clock = clock
	return done
}

// SetUndeletable pins or unpins a resident fragment.
func (a *Arena) SetUndeletable(id uint64, pinned bool) bool {
	n := a.lookupNode(id)
	if n == nil {
		return false
	}
	n.frag.Undeletable = pinned
	return true
}

// Retain adds one process reference to a resident fragment. It reports
// whether the fragment was resident.
func (a *Arena) Retain(id uint64) bool {
	n := a.lookupNode(id)
	if n == nil {
		return false
	}
	n.frag.Refs++
	return true
}

// Release drops one process reference from a resident fragment, returning
// the remaining count. Releasing an unreferenced or non-resident fragment
// reports ok=false.
func (a *Arena) Release(id uint64) (remaining uint32, ok bool) {
	n := a.lookupNode(id)
	if n == nil || n.frag.Refs == 0 {
		return 0, false
	}
	n.frag.Refs--
	return n.frag.Refs, true
}

// wrap returns n, or the head of the list when n is nil.
func (a *Arena) wrap(n *node) *node {
	if n == nil {
		return a.head
	}
	return n
}

// freeNode converts a fragment node to free space and merges it with free
// neighbours. It returns the merged free node. The caller must have removed
// the fragment from the ID index already.
func (a *Arena) freeNode(n *node) *node {
	n.frag = nil
	if a.indexed {
		a.indexFreed(n)
	}
	// Merge with next.
	if nx := n.next; nx != nil && nx.frag == nil {
		n.size += nx.size
		n.next = nx.next
		if nx.next != nil {
			nx.next.prev = n
		}
		if a.cursor == nx {
			a.cursor = n
		}
		a.recycleNode(nx)
	}
	// Merge with prev.
	if pv := n.prev; pv != nil && pv.frag == nil {
		pv.size += n.size
		pv.next = n.next
		if n.next != nil {
			n.next.prev = pv
		}
		if a.cursor == n {
			a.cursor = pv
		}
		a.recycleNode(n)
		n = pv
	}
	if a.indexed {
		a.fixUp(n) // the merged run grew
	}
	return n
}

// indexFreed brings the free-run index up to date, ahead of the merge, for
// n turning free: a lone run joins it; a run absorbing its free successor
// takes the successor's place; a run absorbed by its free predecessor only
// grows the predecessor, and a free successor absorbed with it leaves.
func (a *Arena) indexFreed(n *node) {
	pvFree := n.prev != nil && n.prev.frag == nil
	nxFree := n.next != nil && n.next.frag == nil
	switch {
	case pvFree && nxFree:
		a.idxDelete(n.next)
	case nxFree:
		a.idxReplace(n.next, n)
	case !pvFree:
		a.idxInsert(n)
	}
}

// remove unlinks the fragment with node n from the arena. It returns the
// removed fragment and the merged free node now covering its bytes.
func (a *Arena) remove(n *node) (Fragment, *node) {
	f := *n.frag
	a.unindexNode(f.ID)
	a.used -= n.size
	return f, a.freeNode(n)
}

// Delete removes the fragment with the given ID regardless of the eviction
// cursor. Program-forced evictions (module unmaps) use force=true, which
// removes even undeletable fragments; policy-driven deletions use
// force=false and fail on pinned fragments.
func (a *Arena) Delete(id uint64, force bool) (Fragment, error) {
	n := a.lookupNode(id)
	if n == nil {
		return Fragment{}, fmt.Errorf("codecache: delete: fragment %d not resident", id)
	}
	if n.frag.Undeletable && !force {
		return Fragment{}, fmt.Errorf("codecache: delete: fragment %d is undeletable", id)
	}
	if n.frag.Refs > 0 && !force {
		return Fragment{}, fmt.Errorf("codecache: delete: fragment %d still referenced by %d process(es)", id, n.frag.Refs)
	}
	f, _ := a.remove(n)
	return f, nil
}

// DeleteModule removes every fragment belonging to module m (a
// program-forced eviction). It returns the removed fragments in address
// order — a deterministic order, so replay cost accounting (and therefore
// parallel experiment pipelines) is reproducible.
func (a *Arena) DeleteModule(m uint16) []Fragment {
	var out []Fragment
	// Collect first: removing mutates the list. Walking the node list visits
	// fragments in address order directly.
	var victims []*node
	for n := a.head; n != nil; n = n.next {
		if n.frag != nil && n.frag.Module == m {
			victims = append(victims, n)
		}
	}
	for _, n := range victims {
		f, _ := a.remove(n)
		out = append(out, f)
	}
	return out
}

// Insert places f into the arena using the pseudo-circular policy of §4.3:
// starting at the eviction cursor, it claims free space and evicts resident
// fragments in address order until a contiguous run fits f; when it meets an
// undeletable fragment it resets the run to begin directly after it. Each
// capacity-driven victim is passed to onEvict (which may be nil) after
// removal; the generational manager uses that hook to relocate victims
// instead of discarding them.
func (a *Arena) Insert(f Fragment, onEvict func(Fragment)) error {
	if f.Size == 0 {
		return fmt.Errorf("codecache: insert: zero-sized fragment %d", f.ID)
	}
	if f.Size > a.capacity {
		return ErrTooBig
	}
	if a.lookupNode(f.ID) != nil {
		return ErrDup
	}

	// Because adjacent free nodes always merge, a contiguous free run is
	// always exactly one node. The sweep therefore works node by node: grow
	// the free node at the cursor by evicting the fragments after it until
	// it fits, resetting past undeletable fragments and wrapping at the end
	// of the address space.
	pos := a.wrap(a.cursor)
	restarts := 0
	for {
		if pos == nil {
			// End of the address space: fragments cannot straddle the wrap
			// point, so restart the sweep from the bottom.
			restarts++
			if restarts > 3 {
				return ErrNoSpace
			}
			pos = a.head
			continue
		}
		if pos.frag == nil {
			if pos.size >= f.Size {
				a.place(pos, f)
				return nil
			}
			next := pos.next
			if next == nil {
				pos = nil // wrap
				continue
			}
			// next is necessarily a fragment (free nodes merge).
			if next.frag.Undeletable {
				// Pseudo-circular reset: begin directly after it.
				pos = next.next
				continue
			}
			victim, merged := a.remove(next)
			if onEvict != nil {
				onEvict(victim)
			}
			pos = merged
			continue
		}
		if pos.frag.Undeletable {
			pos = pos.next
			continue
		}
		victim, merged := a.remove(pos)
		if onEvict != nil {
			onEvict(victim)
		}
		pos = merged
	}
}

// place carves f out of the free node n (which must be free and at least
// f.Size bytes) and advances the cursor past the new fragment.
func (a *Arena) place(n *node, f Fragment) {
	if n.frag != nil || n.size < f.Size {
		panic(fmt.Sprintf("codecache: place on unsuitable node (free=%v size=%d need=%d)", n.frag == nil, n.size, f.Size))
	}
	a.clock++
	n.fragVal = f
	n.fragVal.InsertSeq = a.clock
	n.fragVal.LastAccess = a.clock
	n.fragVal.AccessCount = 0
	size := f.Size

	if n.size == size {
		if a.indexed {
			a.idxDelete(n)
		}
		n.frag = &n.fragVal
		a.cursor = a.wrap(n.next)
	} else {
		rest := a.allocNode()
		rest.prev = n
		rest.next = n.next
		rest.off = n.off + size
		rest.size = n.size - size
		if n.next != nil {
			n.next.prev = rest
		}
		n.next = rest
		n.size = size
		n.frag = &n.fragVal
		a.cursor = rest
		if a.indexed {
			// The remainder keeps n's place among the free runs.
			a.idxReplace(n, rest)
			a.fixUp(rest)
		}
	}
	a.indexNode(f.ID, n)
	a.used += size
}

// Resize changes the arena's capacity. Growing extends the address space
// with free bytes. Shrinking evicts, in address order, every fragment that
// overlaps the truncated tail [newCapacity, capacity); each victim is passed
// to onEvict (which may be nil) after removal, so a tiered manager can
// relocate them instead of discarding them. If any such fragment is
// undeletable the resize fails with ErrResizePinned and the arena is left
// unmodified.
func (a *Arena) Resize(newCapacity uint64, onEvict func(Fragment)) error {
	if newCapacity == 0 {
		return fmt.Errorf("codecache: resize to zero capacity")
	}
	if newCapacity == a.capacity {
		return nil
	}
	if newCapacity > a.capacity {
		delta := newCapacity - a.capacity
		last := a.head
		for last.next != nil {
			last = last.next
		}
		if last.frag == nil {
			last.size += delta
			if a.indexed {
				a.fixUp(last)
			}
		} else {
			n := a.allocNode()
			n.prev = last
			n.off = a.capacity
			n.size = delta
			last.next = n
			if a.indexed {
				a.idxInsert(n)
			}
		}
		a.capacity = newCapacity
		return nil
	}

	// Shrink: every fragment overlapping the truncated tail must leave. Check
	// for pins first so a refused resize mutates nothing.
	var victims []*node
	for n := a.head; n != nil; n = n.next {
		if n.frag != nil && n.off+n.size > newCapacity {
			if n.frag.Undeletable {
				return ErrResizePinned
			}
			victims = append(victims, n)
		}
	}
	for _, n := range victims {
		f, _ := a.remove(n)
		if onEvict != nil {
			onEvict(f)
		}
	}
	// The tail [newCapacity, capacity) is now free, and free nodes merge, so
	// the final node is free and covers it (starting at or before the cut).
	last := a.head
	for last.next != nil {
		last = last.next
	}
	if last.off < newCapacity {
		last.size = newCapacity - last.off
		if a.indexed {
			a.fixUp(last)
		}
	} else {
		// The surviving fragments end exactly at the cut: drop the tail node.
		// last.off == newCapacity > 0 implies a predecessor exists.
		if a.indexed {
			a.idxDelete(last)
		}
		pv := last.prev
		pv.next = nil
		if a.cursor == last {
			a.cursor = a.head
		}
		a.recycleNode(last)
	}
	a.capacity = newCapacity
	return nil
}

// PlaceFirstFit inserts f into the lowest-offset free run large enough,
// without evicting anything, in O(log n) through the free-run index (built
// on first use). It returns ErrNoSpace when no run fits. Local policies that
// select victims themselves (LRU, TRRIP, flush) use this after clearing
// space.
func (a *Arena) PlaceFirstFit(f Fragment) error {
	if f.Size == 0 {
		return fmt.Errorf("codecache: place: zero-sized fragment %d", f.ID)
	}
	if f.Size > a.capacity {
		return ErrTooBig
	}
	if a.lookupNode(f.ID) != nil {
		return ErrDup
	}
	n := a.firstFit(f.Size)
	if n == nil {
		return ErrNoSpace
	}
	a.place(n, f)
	return nil
}

// Visit calls fn for each resident fragment in address order, stopping early
// when fn returns false. Unlike Fragments it allocates nothing, so eviction
// scans on the insert path (TRRIP's victim search) and policy adoption can
// walk residents without garbage. fn must not mutate the arena.
func (a *Arena) Visit(fn func(*Fragment) bool) {
	a.visitFrom(a.head, fn)
}

// VisitAfter is Visit starting just past the resident fragment id, provided
// it still sits at offset off. It reports whether it did; when the fragment
// is gone or has moved it visits nothing and returns false.
func (a *Arena) VisitAfter(id, off uint64, fn func(*Fragment) bool) bool {
	n := a.lookupNode(id)
	if n == nil || n.off != off {
		return false
	}
	a.visitFrom(n.next, fn)
	return true
}

func (a *Arena) visitFrom(n *node, fn func(*Fragment) bool) {
	for ; n != nil; n = n.next {
		if n.frag != nil && !fn(n.frag) {
			return
		}
	}
}

// Fragments returns the resident fragments in address order.
func (a *Arena) Fragments() []*Fragment {
	var out []*Fragment
	for n := a.head; n != nil; n = n.next {
		if n.frag != nil {
			out = append(out, n.frag)
		}
	}
	return out
}

// LargestFreeRun returns the size of the largest contiguous free run, in
// O(1) from the free-run index (built on first use).
func (a *Arena) LargestFreeRun() uint64 {
	if r := a.freeRoot(); r != nil {
		return r.maxRun
	}
	return 0
}

// CheckInvariants validates the arena's internal structure: nodes tile the
// address space exactly, used bytes match fragment sizes, the ID index maps
// every fragment and nothing else, no two free nodes are adjacent, and, once
// built, the free-run index holds exactly the free runs. Tests and the
// property-based suite call this after every operation.
func (a *Arena) CheckInvariants() error {
	var off, used uint64
	seen := make(map[uint64]bool)
	prevFree := false
	var prev *node
	for n := a.head; n != nil; n = n.next {
		if n.off != off {
			return fmt.Errorf("codecache: node at %d, expected offset %d", n.off, off)
		}
		if n.size == 0 {
			return fmt.Errorf("codecache: zero-sized node at %d", n.off)
		}
		if n.prev != prev {
			return fmt.Errorf("codecache: bad prev link at %d", n.off)
		}
		if n.frag == nil {
			if prevFree {
				return fmt.Errorf("codecache: adjacent free nodes at %d", n.off)
			}
			prevFree = true
		} else {
			prevFree = false
			used += n.size
			if n.frag.Size != n.size {
				return fmt.Errorf("codecache: fragment %d size %d != node size %d", n.frag.ID, n.frag.Size, n.size)
			}
			if seen[n.frag.ID] {
				return fmt.Errorf("codecache: fragment %d appears twice", n.frag.ID)
			}
			seen[n.frag.ID] = true
			if n.frag != &n.fragVal {
				return fmt.Errorf("codecache: fragment %d not stored in its node", n.frag.ID)
			}
			if idx := a.lookupNode(n.frag.ID); idx != n {
				return fmt.Errorf("codecache: fragment %d not indexed correctly", n.frag.ID)
			}
		}
		off += n.size
		prev = n
	}
	if off != a.capacity {
		return fmt.Errorf("codecache: nodes cover %d bytes, capacity %d", off, a.capacity)
	}
	if used != a.used {
		return fmt.Errorf("codecache: used %d, accounted %d", a.used, used)
	}
	indexed := 0
	a.byID.Each(func(_ uint64, n *node) {
		if n != nil {
			indexed++
		}
	})
	if indexed != a.count {
		return fmt.Errorf("codecache: index has %d entries, count says %d", indexed, a.count)
	}
	if len(seen) != a.count {
		return fmt.Errorf("codecache: index has %d entries, list has %d fragments", a.count, len(seen))
	}
	if a.cursor == nil {
		return fmt.Errorf("codecache: nil cursor")
	}
	// Cursor must be a live node.
	found := false
	for n := a.head; n != nil; n = n.next {
		if n == a.cursor {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("codecache: cursor points at dead node")
	}
	if a.indexed {
		return a.checkIndex()
	}
	return nil
}

// Flush removes every deletable fragment, invoking onDelete for each (may be
// nil), and returns the number removed. Undeletable fragments stay.
func (a *Arena) Flush(onDelete func(Fragment)) int {
	var victims []*node
	for n := a.head; n != nil; n = n.next {
		if n.frag != nil && !n.frag.Undeletable {
			victims = append(victims, n)
		}
	}
	for _, n := range victims {
		f, _ := a.remove(n)
		if onDelete != nil {
			onDelete(f)
		}
	}
	return len(victims)
}

// FragmentationRatio measures how scattered the free space is: 0 when all
// free bytes form one run (or the arena is full), approaching 1 as holes
// multiply. Local-policy comparisons report it.
func (a *Arena) FragmentationRatio() float64 {
	free := a.Free()
	if free == 0 {
		return 0
	}
	return 1 - float64(a.LargestFreeRun())/float64(free)
}

// Occupancy returns used/capacity.
func (a *Arena) Occupancy() float64 {
	return float64(a.used) / float64(a.capacity)
}
