package stats

import (
	"sync/atomic"

	"repro/internal/obs"
)

// EventCounter is the standard metrics consumer for the obs bus: it tallies
// events (and their trace bytes) per kind. All methods are safe for
// concurrent use, so one counter can subscribe to every job of a parallel
// experiment pipeline.
type EventCounter struct {
	counts [obs.NumKinds]atomic.Uint64
	bytes  [obs.NumKinds]atomic.Uint64

	// levels tallies per-kind, per-cache-level counts. Events that leave a
	// level (evict, unmap, flush) are attributed to From; events that land in
	// one (insert, promote) to To. Fixed-size atomics keep Observe
	// allocation-free.
	levels [obs.NumKinds][obs.NumLevels]atomic.Uint64
}

// NewEventCounter returns a zeroed counter.
func NewEventCounter() *EventCounter { return &EventCounter{} }

// Observe implements obs.Observer. Progress events are not counted: they
// report position, not a cache-lifecycle occurrence.
func (c *EventCounter) Observe(e obs.Event) {
	lvl, ok := counted(&e)
	if !ok {
		return
	}
	c.counts[e.Kind].Add(1)
	c.bytes[e.Kind].Add(e.Size)
	if lvl >= 0 {
		c.levels[e.Kind][lvl].Add(1)
	}
}

// counted reports whether a counter counts e, and the cache level it
// charges e to: To for inserts and promotes, From otherwise (a zero From is
// LevelUnified), or -1 when that level is out of range.
func counted(e *obs.Event) (obs.Level, bool) {
	if e.Kind == obs.KindProgress || int(e.Kind) >= obs.NumKinds {
		return -1, false
	}
	lvl := e.From
	if e.Kind == obs.KindInsert || e.Kind == obs.KindPromote {
		lvl = e.To
	}
	if lvl < 0 || int(lvl) >= obs.NumLevels {
		lvl = -1
	}
	return lvl, true
}

// CountAtLevel returns how many events of kind k touched cache level l:
// inserts and promotes landing in l, and evicts, unmaps, and flushes leaving
// it.
func (c *EventCounter) CountAtLevel(k obs.Kind, l obs.Level) uint64 {
	if int(k) >= obs.NumKinds || l < 0 || int(l) >= obs.NumLevels {
		return 0
	}
	return c.levels[k][l].Load()
}

// Count returns how many events of kind k have been observed.
func (c *EventCounter) Count(k obs.Kind) uint64 {
	if int(k) >= obs.NumKinds {
		return 0
	}
	return c.counts[k].Load()
}

// Bytes returns the total trace bytes carried by events of kind k.
func (c *EventCounter) Bytes(k obs.Kind) uint64 {
	if int(k) >= obs.NumKinds {
		return 0
	}
	return c.bytes[k].Load()
}

// Tally is EventCounter's single-goroutine front for one process's event
// stream: it counts with the same kind, byte and level rules in plain
// fields, and Fold adds the counts into a shared counter.
type Tally struct {
	counts [obs.NumKinds]uint64
	bytes  [obs.NumKinds]uint64
	levels [obs.NumKinds][obs.NumLevels]uint64
}

// Add counts e as EventCounter.Observe would.
func (t *Tally) Add(e *obs.Event) {
	lvl, ok := counted(e)
	if !ok {
		return
	}
	t.counts[e.Kind]++
	t.bytes[e.Kind] += e.Size
	if lvl >= 0 {
		t.levels[e.Kind][lvl]++
	}
}

// Fold adds the tally's counts into c and zeroes them, so folding again
// adds only what was counted since.
func (t *Tally) Fold(c *EventCounter) {
	for k := range t.counts {
		n := t.counts[k]
		if n == 0 {
			continue
		}
		c.counts[k].Add(n)
		c.bytes[k].Add(t.bytes[k])
		for l, m := range t.levels[k] {
			if m != 0 {
				c.levels[k][l].Add(m)
			}
		}
	}
	*t = Tally{}
}

// Table renders the non-zero counts as a plain-text table.
func (c *EventCounter) Table() *Table {
	t := NewTable("event", "count", "bytes")
	for k := obs.KindInsert; int(k) < obs.NumKinds; k++ {
		if k == obs.KindProgress {
			continue
		}
		if n := c.Count(k); n > 0 {
			t.AddRow(k.String(), FmtCount(n), FmtBytes(c.Bytes(k)))
		}
	}
	return t
}
