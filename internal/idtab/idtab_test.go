package idtab

import (
	"fmt"
	"testing"
)

// fuzzIDs are the trace IDs FuzzTable draws from: around 0, on either side
// of every slice length the doubling growth passes through, around Dense,
// and far past it.
var fuzzIDs = func() []uint64 {
	ids := []uint64{0, 1, 2, 3}
	for n := uint64(64); n <= Dense; n *= 2 {
		ids = append(ids, n-1, n, n+1)
	}
	return append(ids, Dense+2, 1<<40, ^uint64(0))
}()

// Table operations, chosen by an op byte modulo opCount.
const (
	opSet = iota
	opRef
	opDelete
	opReset
	opAt
	opGet
	opCount
)

// model is the test-only reference a Table is compared with: a map of the
// entries made, and the slice length the doubling growth must reach.
type model struct {
	entries map[uint64]uint16
	denseN  uint64
}

// add records that id has an entry, growing the modelled slice as Table's
// growth must: doubling, at least 64 entries, at most Dense.
func (m *model) add(id uint64) {
	if id < Dense && id >= m.denseN {
		m.denseN = min(max(2*m.denseN, 64, id+1), Dense)
	}
	if _, ok := m.entries[id]; !ok {
		m.entries[id] = 0
	}
}

// runTableOps applies data, three bytes per op (op, ID, value), to a Table
// and to the model. After every op, Get and At must answer for every fuzz
// ID as the model does; before every Reset and at the end, Each must visit
// every entry the model holds, with its value, and no other non-zero one.
func runTableOps(t *testing.T, data []byte) {
	var tab Table[uint16]
	m := model{entries: make(map[uint64]uint16)}
	for i := 0; i+2 < len(data); i += 3 {
		op := int(data[i]) % opCount
		id := fuzzIDs[int(data[i+1])%len(fuzzIDs)]
		v := uint16(data[i+2])<<8 | uint16(data[i])
		step := fmt.Sprintf("op %d (%d on ID %d)", i/3, op, id)
		switch op {
		case opSet:
			tab.Set(id, v)
			m.add(id)
			m.entries[id] = v
		case opRef:
			p := tab.Ref(id)
			m.add(id)
			if *p != m.entries[id] {
				t.Fatalf("%s: Ref reads %d, want %d", step, *p, m.entries[id])
			}
			*p = v
			m.entries[id] = v
		case opDelete:
			tab.Delete(id)
			if id < m.denseN {
				m.entries[id] = 0
			} else {
				delete(m.entries, id)
			}
		case opReset:
			checkEach(t, step, &tab, &m)
			tab.Reset()
			m = model{entries: make(map[uint64]uint16)}
		case opAt:
			if p := tab.At(id); p != nil {
				*p = v
				m.entries[id] = v
			}
		case opGet:
			_ = tab.Get(id)
		}
		checkLookups(t, step, &tab, &m)
	}
	checkEach(t, "end", &tab, &m)
}

// checkLookups holds Get, At and the slice's length to the model.
func checkLookups(t *testing.T, step string, tab *Table[uint16], m *model) {
	t.Helper()
	if uint64(len(tab.dense)) != m.denseN {
		t.Fatalf("%s: slice length %d, want %d", step, len(tab.dense), m.denseN)
	}
	for _, id := range fuzzIDs {
		want, made := m.entries[id]
		made = made || id < m.denseN
		if got := tab.Get(id); got != want {
			t.Fatalf("%s: Get(%d) = %d, want %d", step, id, got, want)
		}
		p := tab.At(id)
		if (p != nil) != made {
			t.Fatalf("%s: At(%d) = %v, want an entry: %v", step, id, p, made)
		}
		if p != nil && *p != want {
			t.Fatalf("%s: *At(%d) = %d, want %d", step, id, *p, want)
		}
	}
}

// checkEach holds Each to the model: every entry the model holds visited
// with its value, any other visit zero, each slice slot once in ID order,
// and every map entry at or past Dense.
func checkEach(t *testing.T, step string, tab *Table[uint16], m *model) {
	t.Helper()
	seen := make(map[uint64]bool)
	visits, next := 0, uint64(0)
	tab.Each(func(id uint64, v uint16) {
		if visits < len(tab.dense) {
			if id != next {
				t.Fatalf("%s: Each visits slot %d, want %d", step, id, next)
			}
			next++
		} else if id < Dense {
			t.Fatalf("%s: Each visits map entry %d below Dense", step, id)
		}
		visits++
		want, ok := m.entries[id]
		if ok {
			seen[id] = true
		}
		if v != want {
			t.Fatalf("%s: Each visits %d = %d, want %d", step, id, v, want)
		}
	})
	if visits != len(tab.dense)+len(tab.spill) {
		t.Fatalf("%s: Each made %d visits over %d slots and %d map entries", step, visits, len(tab.dense), len(tab.spill))
	}
	if len(seen) != len(m.entries) {
		t.Fatalf("%s: Each visited %d of the %d entries made", step, len(seen), len(m.entries))
	}
}

// FuzzTable drives a Table through a byte-chosen sequence of Set, Ref,
// Delete, Reset, At and Get calls and compares it with a map after every
// call.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	// Grow past the first doubling edges, delete in the slice and the map,
	// reset, and regrow over slots the old slice held: they must read zero.
	f.Add([]byte{
		opSet, 5, 1, opSet, 6, 2, opSet, 8, 3, opRef, 53, 4, opDelete, 5, 0,
		opDelete, 53, 0, opSet, 54, 5, opReset, 0, 0, opGet, 6, 0, opRef, 8, 6,
		opAt, 52, 7, opAt, 6, 8,
	})
	// Clamp the slice at Dense: past half of it, doubling would overshoot
	// for the ID just below it. The IDs at and past Dense go to the map.
	f.Add([]byte{
		opSet, 3, 9, opSet, 48, 14, opSet, 49, 10, opSet, 50, 11, opSet, 51, 12, opRef, 52, 0,
		opDelete, 49, 0, opDelete, 50, 0, opReset, 0, 0, opSet, 48, 13,
	})
	f.Fuzz(runTableOps)
}

// TestResetKeepsCapacity: a Reset table regrows into the slice it kept, and
// the slots it regrows over read zero.
func TestResetKeepsCapacity(t *testing.T) {
	var tab Table[int]
	for id := uint64(0); id < 1000; id++ {
		tab.Set(id, int(id)+1)
	}
	kept := cap(tab.dense)
	tab.Reset()
	tab.Set(999, 7)
	if cap(tab.dense) != kept {
		t.Fatalf("capacity %d after regrowing, kept %d", cap(tab.dense), kept)
	}
	for id := uint64(0); id < 999; id++ {
		if v := tab.Get(id); v != 0 {
			t.Fatalf("Get(%d) = %d after Reset, want 0", id, v)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		tab.Reset()
		tab.Set(999, 7)
	}); allocs != 0 {
		t.Errorf("regrowing into the kept slice allocates %.0f times", allocs)
	}
}
