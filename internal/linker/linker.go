// Package linker tracks direct links between cached traces. A real dynamic
// optimizer patches a trace's exit stub to jump straight to another cached
// trace, bypassing the dispatcher; evicting a trace then requires
// *unlinking* — every incoming link must be restored to a dispatcher stub
// before the trace's memory can be reused. This bookkeeping is a large part
// of why evictions carry the flat cost term in Table 2, and why schemes
// that evict long-lived (highly linked) traces hurt so much.
//
// The table is observational in this reproduction: the engine still counts
// dispatch entries for the cache-access log (the paper's simulator works on
// that log too), and the linker records which of those entries would have
// been linked away and how much unlink work each eviction implies.
package linker

import "repro/internal/idtab"

// Link is one patched exit: trace From jumps directly to trace To.
type Link struct {
	From, To uint64
}

// Stats aggregates link activity.
type Stats struct {
	Created  uint64 // links patched in
	Removed  uint64 // links severed by unlinking
	Unlinks  uint64 // unlink operations (evictions of linked traces)
	MaxLinks int    // peak live link count
}

// Table tracks the live links.
type Table struct {
	out   map[uint64]map[uint64]bool // From -> set of To
	in    map[uint64]map[uint64]bool // To -> set of From
	live  int
	stats Stats

	// lastTo caches, per from-trace, the target of its most recently created
	// outgoing link. A hot trace's exit almost always re-links to the same
	// successor, so the dispatcher's per-entry Link call usually resolves
	// with one slice load instead of two map lookups. Entries are cleared
	// when the cached link is severed.
	lastTo idtab.Table[uint64]
}

// New returns an empty link table.
func New() *Table {
	return &Table{
		out: make(map[uint64]map[uint64]bool),
		in:  make(map[uint64]map[uint64]bool),
	}
}

// Link records a direct link from one trace to another. Self-links (a
// trace's back edge to its own head) are the trace's own business and are
// ignored. It reports whether a new link was created.
func (t *Table) Link(from, to uint64) bool {
	if from == to || from == 0 || to == 0 {
		return false
	}
	if t.lastTo.Get(from) == to {
		return false // cached: link already live
	}
	if t.out[from][to] {
		t.lastTo.Set(from, to)
		return false
	}
	if t.out[from] == nil {
		t.out[from] = make(map[uint64]bool)
	}
	if t.in[to] == nil {
		t.in[to] = make(map[uint64]bool)
	}
	t.out[from][to] = true
	t.in[to][from] = true
	t.lastTo.Set(from, to)
	t.live++
	t.stats.Created++
	if t.live > t.stats.MaxLinks {
		t.stats.MaxLinks = t.live
	}
	return true
}

// Linked reports whether a direct link exists.
func (t *Table) Linked(from, to uint64) bool { return t.out[from][to] }

// Incoming returns the number of links targeting the trace.
func (t *Table) Incoming(id uint64) int { return len(t.in[id]) }

// Outgoing returns the number of links leaving the trace.
func (t *Table) Outgoing(id uint64) int { return len(t.out[id]) }

// Live returns the current live link count.
func (t *Table) Live() int { return t.live }

// Stats returns the activity counters.
func (t *Table) Stats() Stats { return t.stats }

// Unlink severs every link into and out of a trace (it is being evicted or
// its module unmapped) and returns how many links were removed.
func (t *Table) Unlink(id uint64) int {
	removed := 0
	for from := range t.in[id] {
		delete(t.out[from], id)
		if len(t.out[from]) == 0 {
			delete(t.out, from)
		}
		if t.lastTo.Get(from) == id {
			t.lastTo.Delete(from)
		}
		removed++
	}
	delete(t.in, id)
	for to := range t.out[id] {
		delete(t.in[to], id)
		if len(t.in[to]) == 0 {
			delete(t.in, to)
		}
		removed++
	}
	delete(t.out, id)
	t.lastTo.Delete(id)
	if removed > 0 {
		t.live -= removed
		t.stats.Removed += uint64(removed)
		t.stats.Unlinks++
	}
	return removed
}

// CheckInvariants validates the table's symmetry: every outgoing link has a
// matching incoming link and the live count matches.
func (t *Table) CheckInvariants() error {
	count := 0
	for from, tos := range t.out {
		for to := range tos {
			if !t.in[to][from] {
				return errAsymmetric(from, to)
			}
			count++
		}
	}
	inCount := 0
	for _, froms := range t.in {
		inCount += len(froms)
	}
	if count != inCount || count != t.live {
		return errCount(count, inCount, t.live)
	}
	var err error
	t.lastTo.Each(func(from, to uint64) {
		if to != 0 && !t.out[from][to] {
			err = linkError("linker: lastTo cache names a dead link")
		}
	})
	return err
}

type linkError string

func (e linkError) Error() string { return string(e) }

func errAsymmetric(from, to uint64) error {
	return linkError("linker: asymmetric link table")
}

func errCount(out, in, live int) error {
	return linkError("linker: link counts disagree")
}
