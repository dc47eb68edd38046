package policy

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/codecache"
)

func insertN(t *testing.T, p Local, a *codecache.Arena, ids []uint64, size uint64) []uint64 {
	t.Helper()
	var evicted []uint64
	for _, id := range ids {
		err := p.Insert(a, codecache.Fragment{ID: id, Size: size}, func(v codecache.Fragment) {
			evicted = append(evicted, v.ID)
		})
		if err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", id, err)
		}
	}
	return evicted
}

func TestPseudoCircularDelegates(t *testing.T) {
	p := PseudoCircular{}
	a := codecache.New(300)
	ev := insertN(t, p, a, []uint64{1, 2, 3, 4}, 100)
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
	p.OnAccess(a, 2) // must be a no-op
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	p := NewLRU()
	a := codecache.New(300)
	insertN(t, p, a, []uint64{1, 2, 3}, 100)
	// Touch 1 and 3; 2 becomes the LRU victim.
	a.Access(1)
	p.OnAccess(a, 1)
	a.Access(3)
	p.OnAccess(a, 3)
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
	if !a.Contains(1) || !a.Contains(3) || !a.Contains(4) {
		t.Error("wrong residents after LRU eviction")
	}
}

func TestLRUFragmentationRequiresMultipleEvictions(t *testing.T) {
	p := NewLRU()
	a := codecache.New(300)
	insertN(t, p, a, []uint64{1, 2, 3}, 100)
	// All three untouched since insert; inserting a 250-byte trace must
	// evict multiple fragments and still find contiguous space.
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 250}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) < 2 {
		t.Fatalf("evicted %v, want at least 2 victims", ev)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUSkipsPinned(t *testing.T) {
	p := NewLRU()
	a := codecache.New(200)
	if err := p.Insert(a, codecache.Fragment{ID: 1, Size: 100, Undeletable: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(a, codecache.Fragment{ID: 2, Size: 100}, nil); err != nil {
		t.Fatal(err)
	}
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 3, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2] (1 is pinned)", ev)
	}
}

// TestLRUPinnedEntryRegainsStanding is a regression test: a trace the
// victim search passes over while it is pinned must keep its place in the
// recency order, or it silently loses its LRU standing once unpinned.
func TestLRUPinnedEntryRegainsStanding(t *testing.T) {
	p := NewLRU()
	a := codecache.New(300)
	insertN(t, p, a, []uint64{1, 2, 3}, 100)
	if !a.SetUndeletable(1, true) {
		t.Fatal("pin failed")
	}
	// Inserting 4 pops 1's entry (pinned, skipped) and evicts 2 instead.
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2] (1 is pinned)", ev)
	}
	// Unpin 1 and make everything else more recent. 1 is now the LRU.
	a.SetUndeletable(1, false)
	for _, id := range []uint64{3, 4} {
		a.Access(id)
		p.OnAccess(a, id)
	}
	ev = ev[:0]
	if err := p.Insert(a, codecache.Fragment{ID: 5, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1] (LRU after unpin)", ev)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLRUReferencedEntryRegainsStanding mirrors the pinned regression for
// process references: Refs>0 exempts a fragment from policy eviction, and
// releasing the reference must restore its place in LRU order.
func TestLRUReferencedEntryRegainsStanding(t *testing.T) {
	p := NewLRU()
	a := codecache.New(300)
	insertN(t, p, a, []uint64{1, 2, 3}, 100)
	if !a.Retain(1) {
		t.Fatal("retain failed")
	}
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2] (1 is referenced)", ev)
	}
	if _, ok := a.Release(1); !ok {
		t.Fatal("release failed")
	}
	for _, id := range []uint64{3, 4} {
		a.Access(id)
		p.OnAccess(a, id)
	}
	ev = ev[:0]
	if err := p.Insert(a, codecache.Fragment{ID: 5, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1] (LRU after release)", ev)
	}
}

// TestLRUNoSpaceAllReferenced is a regression test for an unbounded retry:
// a victim search that returned referenced fragments, which Delete refuses,
// made Insert spin forever once only referenced fragments remained.
func TestLRUNoSpaceAllReferenced(t *testing.T) {
	p := NewLRU()
	a := codecache.New(200)
	if err := p.Insert(a, codecache.Fragment{ID: 1, Size: 200}, nil); err != nil {
		t.Fatal(err)
	}
	if !a.Retain(1) {
		t.Fatal("retain failed")
	}
	if err := p.Insert(a, codecache.Fragment{ID: 2, Size: 100}, nil); !errors.Is(err, codecache.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// Releasing the reference makes 1 evictable again.
	if _, ok := a.Release(1); !ok {
		t.Fatal("release failed")
	}
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 2, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
}

// TestLRUProgramForcedHoles drives LRU across module unmaps: stale recency
// entries for unmapped fragments must be skipped, holes must be reusable,
// and eviction must still pick the live LRU fragment.
func TestLRUProgramForcedHoles(t *testing.T) {
	p := NewLRU()
	a := codecache.New(400)
	for id := uint64(1); id <= 4; id++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 100, Module: uint16(id % 2)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	a.Access(2)
	p.OnAccess(a, 2)
	// Unmap module 1: fragments 1 and 3 leave two program-forced holes.
	if gone := a.DeleteModule(1); len(gone) != 2 {
		t.Fatalf("unmapped %d fragments, want 2", len(gone))
	}
	// The next two inserts fill the holes without evicting.
	var ev []uint64
	onEvict := func(v codecache.Fragment) { ev = append(ev, v.ID) }
	for id := uint64(5); id <= 6; id++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 100}, onEvict); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if len(ev) != 0 {
		t.Fatalf("hole fills evicted %v", ev)
	}
	// Cache is full again; the live LRU is 4 (2 was touched after it, 5 and
	// 6 are younger). The stale entries for 1, 2, and 3 must all be skipped.
	if err := p.Insert(a, codecache.Fragment{ID: 7, Size: 100}, onEvict); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 4 {
		t.Fatalf("evicted %v, want [4]", ev)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLRUPinnedRandomized churns LRU with pins, references, and module
// unmaps mixed in, checking that pinned or referenced fragments are never
// policy-evicted and the arena model stays consistent.
func TestLRUPinnedRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := NewLRU()
	a := codecache.New(4096)
	live := map[uint64]bool{}
	pinned := map[uint64]bool{}
	refd := map[uint64]bool{}
	id := uint64(1)
	anyLive := func() (uint64, bool) {
		for k := range live {
			return k, true
		}
		return 0, false
	}
	for op := 0; op < 4000; op++ {
		switch r.Intn(8) {
		case 0: // access
			if k, ok := anyLive(); ok && a.Access(k) {
				p.OnAccess(a, k)
			}
		case 1: // toggle pin
			if k, ok := anyLive(); ok {
				pin := !pinned[k]
				a.SetUndeletable(k, pin)
				pinned[k] = pin
			}
		case 2: // toggle process reference
			if k, ok := anyLive(); ok {
				if refd[k] {
					a.Release(k)
				} else {
					a.Retain(k)
				}
				refd[k] = !refd[k]
			}
		case 3: // occasional module unmap (program-forced holes)
			if r.Intn(4) == 0 {
				for _, f := range a.DeleteModule(uint16(r.Intn(4))) {
					delete(live, f.ID)
					delete(pinned, f.ID)
					delete(refd, f.ID)
				}
			}
		default: // insert
			f := codecache.Fragment{ID: id, Size: uint64(64 + r.Intn(700)), Module: uint16(r.Intn(4))}
			id++
			err := p.Insert(a, f, func(v codecache.Fragment) {
				if pinned[v.ID] || refd[v.ID] {
					t.Fatalf("op %d: evicted protected fragment %d", op, v.ID)
				}
				if !live[v.ID] {
					t.Fatalf("op %d: evicted dead fragment %d", op, v.ID)
				}
				delete(live, v.ID)
			})
			if errors.Is(err, codecache.ErrNoSpace) {
				continue // legal when pins and references block every layout
			}
			if err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			live[f.ID] = true
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if a.Len() != len(live) {
			t.Fatalf("op %d: arena %d vs model %d", op, a.Len(), len(live))
		}
	}
}

func TestLRUNoSpaceAllPinned(t *testing.T) {
	p := NewLRU()
	a := codecache.New(200)
	if err := p.Insert(a, codecache.Fragment{ID: 1, Size: 200, Undeletable: true}, nil); err != nil {
		t.Fatal(err)
	}
	err := p.Insert(a, codecache.Fragment{ID: 2, Size: 100}, nil)
	if !errors.Is(err, codecache.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if err := p.Insert(a, codecache.Fragment{ID: 3, Size: 300}, nil); !errors.Is(err, codecache.ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
}

func TestFlushWhenFull(t *testing.T) {
	p := &FlushWhenFull{}
	a := codecache.New(300)
	insertN(t, p, a, []uint64{1, 2, 3}, 100)
	if p.Flushes != 0 {
		t.Fatalf("premature flush")
	}
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if p.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", p.Flushes)
	}
	if len(ev) != 3 {
		t.Fatalf("flush evicted %v, want all three", ev)
	}
	if a.Len() != 1 || !a.Contains(4) {
		t.Error("only fragment 4 should remain")
	}
	if err := p.Insert(a, codecache.Fragment{ID: 5, Size: 400}, nil); !errors.Is(err, codecache.ErrTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestPreemptiveFlushOnPhaseChange(t *testing.T) {
	p := NewPreemptiveFlush()
	p.Window = 8
	p.SpikeFactor = 3
	a := codecache.New(1 << 20)
	id := uint64(1)

	// Warm-up phase: slow insertion rate (many accesses between inserts).
	for i := 0; i < 32; i++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 64}, nil); err != nil {
			t.Fatal(err)
		}
		id++
		for j := 0; j < 50; j++ {
			a.Access(id - 1)
		}
	}
	if p.Flushes != 0 {
		t.Fatalf("flushed during steady phase")
	}
	// Phase change: a burst of back-to-back insertions.
	before := a.Len()
	for i := 0; i < 16; i++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 64}, nil); err != nil {
			t.Fatal(err)
		}
		id++
	}
	if p.Flushes == 0 {
		t.Fatalf("no preemptive flush after burst (len before %d, after %d)", before, a.Len())
	}
}

func TestPreemptiveFlushWhenFull(t *testing.T) {
	p := NewPreemptiveFlush()
	a := codecache.New(300)
	for id := uint64(1); id <= 4; id++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 100}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if p.FullFlushes != 1 {
		t.Fatalf("full flushes = %d, want 1", p.FullFlushes)
	}
	if err := p.Insert(a, codecache.Fragment{ID: 9, Size: 400}, nil); !errors.Is(err, codecache.ErrTooBig) {
		t.Fatalf("err = %v", err)
	}
}

// TestUnboundedNeverEvicts: an unbounded cache is pseudo-circular over a
// 2^40-byte arena, the collection pass's cache; it never evicts.
func TestUnboundedNeverEvicts(t *testing.T) {
	a := codecache.New(1 << 40)
	for id := uint64(1); id <= 500; id++ {
		if err := (PseudoCircular{}).Insert(a, codecache.Fragment{ID: id, Size: 1000}, func(v codecache.Fragment) {
			t.Fatalf("unbounded cache evicted fragment %d", v.ID)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 500 {
		t.Fatalf("len = %d", a.Len())
	}
}

func TestNames(t *testing.T) {
	for _, p := range []Local{PseudoCircular{}, NewLRU(), &FlushWhenFull{}, NewPreemptiveFlush(), &CircularFirstFit{}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

// TestPoliciesRandomized runs every policy through a random workload and
// checks arena invariants and residency consistency throughout.
func TestPoliciesRandomized(t *testing.T) {
	mk := []func() Local{
		func() Local { return PseudoCircular{} },
		func() Local { return NewLRU() },
		func() Local { return &FlushWhenFull{} },
		func() Local { return NewPreemptiveFlush() },
		func() Local { return NewTRRIP() },
		func() Local { return &CircularFirstFit{} },
	}
	for _, make := range mk {
		p := make()
		t.Run(p.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			a := codecache.New(8192)
			live := map[uint64]bool{}
			id := uint64(1)
			for op := 0; op < 2000; op++ {
				if r.Intn(3) == 0 {
					// access a random live fragment
					for k := range live {
						if a.Access(k) {
							p.OnAccess(a, k)
						}
						break
					}
					continue
				}
				f := codecache.Fragment{ID: id, Size: uint64(32 + r.Intn(900))}
				id++
				err := p.Insert(a, f, func(v codecache.Fragment) {
					if !live[v.ID] {
						t.Fatalf("op %d: evicted dead fragment %d", op, v.ID)
					}
					delete(live, v.ID)
				})
				if err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				live[f.ID] = true
				if err := a.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if a.Len() != len(live) {
					t.Fatalf("op %d: arena %d vs model %d", op, a.Len(), len(live))
				}
			}
		})
	}
}

func TestCircularFirstFitFillsHoles(t *testing.T) {
	p := &CircularFirstFit{}
	a := codecache.New(400)
	for id := uint64(1); id <= 4; id++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 100, Module: uint16(id % 2)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Unmap module 1 (fragments 1 and 3): two 100-byte holes.
	a.DeleteModule(1)
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 5, Size: 80}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("hole fill evicted %v", ev)
	}
	off, _ := a.Offset(5)
	if off != 0 {
		t.Errorf("fragment 5 placed at %d, want hole at 0", off)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// When no hole fits, it falls back to circular eviction.
	if err := p.Insert(a, codecache.Fragment{ID: 6, Size: 150}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) == 0 {
		t.Error("oversized insert should have evicted")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
