// Package idtab is the one table keyed by trace ID. Everything that finds a
// trace by its ID keeps its table here: the arena's fragment index, LRU's
// recency links, TRRIP's RRPVs, the replay's trace registry, the
// attribution ledger, the tier hints and the linker's successor cache.
//
// The engine numbers traces 1, 2, 3, ..., so a slice indexed by ID holds
// every entry a replay makes, and a lookup is one bounds check and one load.
// IDs at or past Dense go to a map; only the shared tier's server-lifetime
// IDs and ccsim's remapped multi-process IDs get that far.
package idtab

// Dense bounds the slice: IDs below it index the slice, IDs at or past it
// are map entries.
const Dense = 1 << 21

// Table maps trace IDs to values of type V. The zero Table is empty and
// ready to use, and an ID never set reads as V's zero value. A pointer from
// Ref or At stays valid until the next Ref or Set of an ID the table does
// not hold yet (the slice may move as it grows), or the next Reset; a
// pointer to a map entry also ends with that entry's Delete.
type Table[V any] struct {
	dense []V
	spill map[uint64]*V
}

// Get returns the value stored for id, or V's zero value.
func (t *Table[V]) Get(id uint64) V {
	if d := t.dense; id < uint64(len(d)) {
		return d[id]
	}
	// Reading a nil map is still a runtime call: test it first, so a table
	// that has spilled nothing answers an ID past the slice without one.
	if t.spill != nil {
		if p := t.spill[id]; p != nil {
			return *p
		}
	}
	var zero V
	return zero
}

// At returns the entry for id, or nil when the table holds none. Every ID
// below the slice's length has an entry, set or not.
func (t *Table[V]) At(id uint64) *V {
	if d := t.dense; id < uint64(len(d)) {
		return &d[id]
	}
	if t.spill != nil {
		return t.spill[id]
	}
	return nil
}

// Ref returns the entry for id, making it, zeroed, when the table holds
// none.
func (t *Table[V]) Ref(id uint64) *V {
	if d := t.dense; id < uint64(len(d)) {
		return &d[id]
	}
	return t.add(id)
}

// Set stores v for id.
func (t *Table[V]) Set(id uint64, v V) {
	if d := t.dense; id < uint64(len(d)) {
		d[id] = v
		return
	}
	*t.add(id) = v
}

// add is Ref's slow path for an ID past the slice: grow the slice to hold
// it, or find or add its map entry.
func (t *Table[V]) add(id uint64) *V {
	if id < Dense {
		t.grow(id)
		return &t.dense[id]
	}
	p := t.spill[id]
	if p == nil {
		if t.spill == nil {
			t.spill = make(map[uint64]*V)
		}
		p = new(V)
		t.spill[id] = p
	}
	return p
}

// grow lengthens the slice to hold id, which is below Dense: doubling, at
// least 64 entries, at most Dense. Capacity a Reset kept is reused; its
// slots are zeroed as they come back into the slice.
func (t *Table[V]) grow(id uint64) {
	n := min(max(2*len(t.dense), 64, int(id)+1), Dense)
	if n <= cap(t.dense) {
		old := len(t.dense)
		t.dense = t.dense[:n]
		clear(t.dense[old:])
		return
	}
	grown := make([]V, n)
	copy(grown, t.dense)
	t.dense = grown
}

// Delete removes id's entry: a slice slot is zeroed, a map entry dropped.
func (t *Table[V]) Delete(id uint64) {
	if id < uint64(len(t.dense)) {
		var zero V
		t.dense[id] = zero
		return
	}
	delete(t.spill, id)
}

// Reset empties the table. The slice keeps its capacity for the next use;
// the map is dropped.
func (t *Table[V]) Reset() {
	t.dense = t.dense[:0]
	t.spill = nil
}

// Each calls f for every entry: each slice slot, in ID order, set or not,
// then each map entry, in no fixed order.
func (t *Table[V]) Each(f func(id uint64, v V)) {
	for id, v := range t.dense {
		f(uint64(id), v)
	}
	for id, p := range t.spill {
		f(id, *p)
	}
}
