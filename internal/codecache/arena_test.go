package codecache

import (
	"errors"
	"math/rand"
	"testing"
)

func mustInsert(t *testing.T, a *Arena, f Fragment) []Fragment {
	t.Helper()
	var ev []Fragment
	if err := a.Insert(f, func(v Fragment) { ev = append(ev, v) }); err != nil {
		t.Fatalf("Insert(%d, size %d): %v", f.ID, f.Size, err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("after Insert(%d): %v", f.ID, err)
	}
	return ev
}

func TestInsertAndLookup(t *testing.T) {
	a := New(1000)
	mustInsert(t, a, Fragment{ID: 1, Size: 100, Module: 3, HeadAddr: 0x40})
	if a.Used() != 100 || a.Free() != 900 || a.Len() != 1 {
		t.Fatalf("used=%d free=%d len=%d", a.Used(), a.Free(), a.Len())
	}
	f, ok := a.Lookup(1)
	if !ok || f.Module != 3 || f.HeadAddr != 0x40 {
		t.Fatalf("Lookup(1) = %+v, %v", f, ok)
	}
	if !a.Contains(1) || a.Contains(2) {
		t.Error("Contains wrong")
	}
	if off, ok := a.Offset(1); !ok || off != 0 {
		t.Errorf("Offset(1) = %d, %v", off, ok)
	}
	if _, ok := a.Offset(9); ok {
		t.Error("Offset(9) should fail")
	}
	if _, ok := a.Lookup(9); ok {
		t.Error("Lookup(9) should fail")
	}
}

func TestInsertErrors(t *testing.T) {
	a := New(100)
	if err := a.Insert(Fragment{ID: 1, Size: 0}, nil); err == nil {
		t.Error("zero-size insert should fail")
	}
	if err := a.Insert(Fragment{ID: 1, Size: 101}, nil); !errors.Is(err, ErrTooBig) {
		t.Errorf("oversized insert = %v, want ErrTooBig", err)
	}
	mustInsert(t, a, Fragment{ID: 1, Size: 50})
	if err := a.Insert(Fragment{ID: 1, Size: 10}, nil); !errors.Is(err, ErrDup) {
		t.Errorf("duplicate insert = %v, want ErrDup", err)
	}
	if err := a.PlaceFirstFit(Fragment{ID: 1, Size: 10}); !errors.Is(err, ErrDup) {
		t.Errorf("duplicate place = %v, want ErrDup", err)
	}
	if err := a.PlaceFirstFit(Fragment{ID: 2, Size: 0}); err == nil {
		t.Error("zero-size place should fail")
	}
	if err := a.PlaceFirstFit(Fragment{ID: 2, Size: 500}); !errors.Is(err, ErrTooBig) {
		t.Errorf("oversized place = %v", err)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestCircularEvictionOrder(t *testing.T) {
	// Fill a 300-byte arena with three 100-byte fragments, then keep
	// inserting: evictions must proceed in FIFO (address) order.
	a := New(300)
	for id := uint64(1); id <= 3; id++ {
		if ev := mustInsert(t, a, Fragment{ID: id, Size: 100}); len(ev) != 0 {
			t.Fatalf("insert %d evicted %v", id, ev)
		}
	}
	ev := mustInsert(t, a, Fragment{ID: 4, Size: 100})
	if len(ev) != 1 || ev[0].ID != 1 {
		t.Fatalf("insert 4 evicted %v, want fragment 1", ev)
	}
	ev = mustInsert(t, a, Fragment{ID: 5, Size: 100})
	if len(ev) != 1 || ev[0].ID != 2 {
		t.Fatalf("insert 5 evicted %v, want fragment 2", ev)
	}
	// Wrap-around continues with 3.
	ev = mustInsert(t, a, Fragment{ID: 6, Size: 100})
	if len(ev) != 1 || ev[0].ID != 3 {
		t.Fatalf("insert 6 evicted %v, want fragment 3", ev)
	}
}

func TestVaryingSizesEvictMultiple(t *testing.T) {
	a := New(300)
	mustInsert(t, a, Fragment{ID: 1, Size: 120})
	mustInsert(t, a, Fragment{ID: 2, Size: 120})
	// 60 bytes free; inserting 200 must evict both 1 and 2.
	ev := mustInsert(t, a, Fragment{ID: 3, Size: 200})
	if len(ev) != 2 || ev[0].ID != 1 || ev[1].ID != 2 {
		t.Fatalf("evicted %v, want fragments 1 then 2", ev)
	}
	if a.Len() != 1 || a.Used() != 200 {
		t.Fatalf("len=%d used=%d", a.Len(), a.Used())
	}
}

func TestUndeletableSkipped(t *testing.T) {
	a := New(400)
	mustInsert(t, a, Fragment{ID: 1, Size: 100})
	mustInsert(t, a, Fragment{ID: 2, Size: 100, Undeletable: true})
	mustInsert(t, a, Fragment{ID: 3, Size: 100})
	// 100 bytes remain free at the top. Inserting 150 sweeps from the
	// cursor: the tail free space is too small, the sweep wraps, evicts 1,
	// hits the pinned 2 and resets directly after it, then evicts 3 and
	// places the new fragment at offset 200.
	ev := mustInsert(t, a, Fragment{ID: 4, Size: 150})
	ids := map[uint64]bool{}
	for _, f := range ev {
		ids[f.ID] = true
	}
	if ids[2] {
		t.Fatalf("undeletable fragment 2 was evicted: %v", ev)
	}
	if !ids[1] || !ids[3] {
		t.Fatalf("expected fragments 1 and 3 evicted, got %v", ev)
	}
	if !a.Contains(2) || !a.Contains(4) {
		t.Error("arena should contain fragments 2 and 4")
	}
	if off, _ := a.Offset(4); off != 200 {
		t.Errorf("fragment 4 placed at %d, want 200 (directly after the pinned fragment)", off)
	}
}

func TestPinnedMiddleBlocksLargeInsert(t *testing.T) {
	// A pinned fragment in the middle of a full arena caps the largest
	// achievable contiguous run; a too-large insert must fail cleanly.
	a := New(300)
	mustInsert(t, a, Fragment{ID: 1, Size: 100})
	mustInsert(t, a, Fragment{ID: 2, Size: 100, Undeletable: true})
	mustInsert(t, a, Fragment{ID: 3, Size: 100})
	if err := a.Insert(Fragment{ID: 4, Size: 150}, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if !a.Contains(2) {
		t.Error("pinned fragment must survive the failed insert")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllUndeletableNoSpace(t *testing.T) {
	a := New(200)
	mustInsert(t, a, Fragment{ID: 1, Size: 100, Undeletable: true})
	mustInsert(t, a, Fragment{ID: 2, Size: 100, Undeletable: true})
	err := a.Insert(Fragment{ID: 3, Size: 150}, nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("insert into fully pinned arena = %v, want ErrNoSpace", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnpinAllowsEviction(t *testing.T) {
	a := New(200)
	mustInsert(t, a, Fragment{ID: 1, Size: 200, Undeletable: true})
	if err := a.Insert(Fragment{ID: 2, Size: 200}, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if !a.SetUndeletable(1, false) {
		t.Fatal("SetUndeletable failed")
	}
	mustInsert(t, a, Fragment{ID: 2, Size: 200})
	if a.Contains(1) {
		t.Error("fragment 1 should have been evicted after unpin")
	}
	if a.SetUndeletable(42, true) {
		t.Error("SetUndeletable on missing fragment should report false")
	}
}

func TestDelete(t *testing.T) {
	a := New(300)
	mustInsert(t, a, Fragment{ID: 1, Size: 100})
	mustInsert(t, a, Fragment{ID: 2, Size: 100, Undeletable: true})

	if _, err := a.Delete(99, false); err == nil {
		t.Error("deleting missing fragment should fail")
	}
	if _, err := a.Delete(2, false); err == nil {
		t.Error("deleting pinned fragment without force should fail")
	}
	f, err := a.Delete(2, true)
	if err != nil || f.ID != 2 {
		t.Fatalf("forced delete = %+v, %v", f, err)
	}
	if _, err := a.Delete(1, false); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 0 || a.Used() != 0 {
		t.Errorf("len=%d used=%d after deletes", a.Len(), a.Used())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteModule(t *testing.T) {
	a := New(1000)
	for id := uint64(1); id <= 6; id++ {
		mustInsert(t, a, Fragment{ID: id, Size: 100, Module: uint16(id % 2)})
	}
	out := a.DeleteModule(0)
	if len(out) != 3 {
		t.Fatalf("DeleteModule removed %d, want 3", len(out))
	}
	for _, f := range out {
		if f.Module != 0 {
			t.Errorf("removed fragment %d from module %d", f.ID, f.Module)
		}
	}
	if a.Len() != 3 {
		t.Errorf("len = %d, want 3", a.Len())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := a.DeleteModule(7); len(got) != 0 {
		t.Errorf("DeleteModule(7) = %v", got)
	}
}

func TestForcedHolesAreReused(t *testing.T) {
	// Punch a hole via module unmap, then keep inserting: the circular
	// sweep must eventually reuse the hole without corrupting anything.
	a := New(400)
	mustInsert(t, a, Fragment{ID: 1, Size: 100, Module: 1})
	mustInsert(t, a, Fragment{ID: 2, Size: 100, Module: 2})
	mustInsert(t, a, Fragment{ID: 3, Size: 100, Module: 1})
	a.DeleteModule(2) // hole in the middle
	if a.Used() != 200 {
		t.Fatalf("used = %d", a.Used())
	}
	// Next insert goes at the cursor (after fragment 3), not in the hole:
	// the paper's policy does not chase holes.
	mustInsert(t, a, Fragment{ID: 4, Size: 100})
	if a.Len() != 3 {
		t.Fatalf("len = %d", a.Len())
	}
	// Now a 100-byte insert wraps and lands in or before the hole region,
	// evicting per circular order as needed.
	mustInsert(t, a, Fragment{ID: 5, Size: 100})
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessCounts(t *testing.T) {
	a := New(100)
	mustInsert(t, a, Fragment{ID: 1, Size: 50})
	if a.Access(2) {
		t.Error("Access(2) should report missing")
	}
	for i := 0; i < 5; i++ {
		if !a.Access(1) {
			t.Fatal("Access(1) failed")
		}
	}
	f, _ := a.Lookup(1)
	if f.AccessCount != 5 {
		t.Errorf("AccessCount = %d, want 5", f.AccessCount)
	}
	if f.LastAccess <= f.InsertSeq {
		t.Error("LastAccess should advance past InsertSeq")
	}
}

func TestAccessCountResetsOnReinsert(t *testing.T) {
	a := New(100)
	mustInsert(t, a, Fragment{ID: 1, Size: 50})
	a.Access(1)
	a.Access(1)
	f, _ := a.Delete(1, false)
	if f.AccessCount != 2 {
		t.Fatalf("deleted fragment carries count %d", f.AccessCount)
	}
	// Re-inserting the same fragment resets its per-arena counters, which
	// is what probation-cache semantics require.
	mustInsert(t, a, f)
	g, _ := a.Lookup(1)
	if g.AccessCount != 0 {
		t.Errorf("reinserted AccessCount = %d, want 0", g.AccessCount)
	}
}

func TestFlush(t *testing.T) {
	a := New(1000)
	mustInsert(t, a, Fragment{ID: 1, Size: 100})
	mustInsert(t, a, Fragment{ID: 2, Size: 100, Undeletable: true})
	mustInsert(t, a, Fragment{ID: 3, Size: 100})
	var flushed []uint64
	n := a.Flush(func(f Fragment) { flushed = append(flushed, f.ID) })
	if n != 2 || len(flushed) != 2 {
		t.Fatalf("flushed %d (%v)", n, flushed)
	}
	if !a.Contains(2) || a.Contains(1) || a.Contains(3) {
		t.Error("flush kept/removed the wrong fragments")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Flush(nil) != 0 {
		t.Error("second flush should remove nothing")
	}
}

func TestPlaceFirstFit(t *testing.T) {
	a := New(300)
	mustInsert(t, a, Fragment{ID: 1, Size: 100})
	mustInsert(t, a, Fragment{ID: 2, Size: 100})
	mustInsert(t, a, Fragment{ID: 3, Size: 100})
	a.Delete(2, false) // hole at [100,200)
	if err := a.PlaceFirstFit(Fragment{ID: 4, Size: 80}); err != nil {
		t.Fatal(err)
	}
	off, _ := a.Offset(4)
	if off != 100 {
		t.Errorf("first-fit placed at %d, want 100", off)
	}
	if err := a.PlaceFirstFit(Fragment{ID: 5, Size: 50}); !errors.Is(err, ErrNoSpace) {
		t.Errorf("place into 20-byte hole = %v, want ErrNoSpace", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeRuns(t *testing.T) {
	a := New(400)
	mustInsert(t, a, Fragment{ID: 1, Size: 100})
	mustInsert(t, a, Fragment{ID: 2, Size: 100})
	mustInsert(t, a, Fragment{ID: 3, Size: 100})
	a.Delete(2, false)
	// Two 100-byte runs: the hole at 100 and the tail at 300.
	if a.Free() != 200 || a.LargestFreeRun() != 100 {
		t.Errorf("free %d, largest run %d; want 200 in two runs of 100", a.Free(), a.LargestFreeRun())
	}
	a.Delete(3, false) // merges hole with tail free space
	if a.LargestFreeRun() != 300 {
		t.Errorf("largest run after merge = %d, want 300", a.LargestFreeRun())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentsInAddressOrder(t *testing.T) {
	a := New(1000)
	for id := uint64(1); id <= 5; id++ {
		mustInsert(t, a, Fragment{ID: id, Size: 100})
	}
	frags := a.Fragments()
	if len(frags) != 5 {
		t.Fatalf("fragments = %d", len(frags))
	}
	for i, f := range frags {
		if f.ID != uint64(i+1) {
			t.Errorf("fragment %d has ID %d", i, f.ID)
		}
	}
}

func TestUnbounded(t *testing.T) {
	a := New(1 << 40)
	var evictions int
	for id := uint64(1); id <= 1000; id++ {
		if err := a.Insert(Fragment{ID: id, Size: 10000}, func(Fragment) { evictions++ }); err != nil {
			t.Fatal(err)
		}
	}
	if evictions != 0 {
		t.Errorf("unbounded arena evicted %d fragments", evictions)
	}
	if a.Len() != 1000 {
		t.Errorf("len = %d", a.Len())
	}
}

// linearFirstFit is the reference first fit: the offset of the first free
// node, in address order, of at least size bytes.
func linearFirstFit(a *Arena, size uint64) (uint64, bool) {
	for n := a.head; n != nil; n = n.next {
		if n.frag == nil && n.size >= size {
			return n.off, true
		}
	}
	return 0, false
}

// TestRandomizedInvariants hammers the arena with a random operation mix and
// validates the full structural invariant set after every operation. This is
// the property-based core of the storage-layer test suite. First-fit
// placements join the mix only after indexFrom operations, so the free-run
// index is built lazily over an arena that already has history, and every
// placement must land where a linear walk would put it.
func TestRandomizedInvariants(t *testing.T) {
	const indexFrom = 1000
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		a := New(4096)
		live := map[uint64]bool{}
		nextID := uint64(1)
		pinned := map[uint64]bool{}
		drop := func(id uint64) {
			if !live[id] {
				t.Fatalf("seed %d: removed dead fragment %d", seed, id)
			}
			delete(live, id)
			delete(pinned, id)
		}

		for op := 0; op < 3000; op++ {
			k := r.Intn(14)
			if op < indexFrom && k >= 10 {
				k = 7 // access instead, until the index may be built
			}
			switch {
			case k < 5: // insert
				f := Fragment{
					ID:     nextID,
					Size:   uint64(16 + r.Intn(600)),
					Module: uint16(r.Intn(4)),
				}
				if r.Intn(20) == 0 {
					f.Undeletable = true
				}
				nextID++
				err := a.Insert(f, func(v Fragment) {
					if v.Undeletable {
						t.Fatalf("seed %d op %d: evicted pinned fragment %d", seed, op, v.ID)
					}
					drop(v.ID)
				})
				switch {
				case err == nil:
					live[f.ID] = true
					if f.Undeletable {
						pinned[f.ID] = true
					}
				case errors.Is(err, ErrNoSpace):
					// legal when pinned fragments crowd the arena
				default:
					t.Fatalf("seed %d op %d: insert: %v", seed, op, err)
				}
			case k < 6: // delete random
				for id := range live {
					_, err := a.Delete(id, pinned[id])
					if err != nil {
						t.Fatalf("seed %d op %d: delete %d: %v", seed, op, id, err)
					}
					drop(id)
					break
				}
			case k < 7: // delete module
				m := uint16(r.Intn(4))
				for _, f := range a.DeleteModule(m) {
					drop(f.ID)
				}
			case k < 9: // access random live
				for id := range live {
					if !a.Access(id) {
						t.Fatalf("seed %d op %d: access of live fragment %d failed", seed, op, id)
					}
					break
				}
			case k < 10: // toggle pin
				for id := range live {
					want := !pinned[id]
					a.SetUndeletable(id, want)
					if want {
						pinned[id] = true
					} else {
						delete(pinned, id)
					}
					break
				}
			case k < 12: // first-fit placement, checked against a linear walk
				f := Fragment{ID: nextID, Size: uint64(16 + r.Intn(600)), Module: uint16(r.Intn(4))}
				nextID++
				want, fits := linearFirstFit(a, f.Size)
				if largest := a.LargestFreeRun(); (largest >= f.Size) != fits {
					t.Fatalf("seed %d op %d: largest free run %d, linear walk fits %d bytes: %v", seed, op, largest, f.Size, fits)
				}
				err := a.PlaceFirstFit(f)
				switch {
				case !fits:
					if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("seed %d op %d: place %d bytes with no fitting run = %v, want ErrNoSpace", seed, op, f.Size, err)
					}
				case err != nil:
					t.Fatalf("seed %d op %d: place: %v", seed, op, err)
				default:
					if off, _ := a.Offset(f.ID); off != want {
						t.Fatalf("seed %d op %d: first fit placed %d bytes at %d, linear walk says %d", seed, op, f.Size, off, want)
					}
					live[f.ID] = true
				}
			case k < 13: // resize within [2048, 6144]; a pinned tail refuses
				err := a.Resize(uint64(2048+r.Intn(4097)), func(v Fragment) { drop(v.ID) })
				if err != nil && !errors.Is(err, ErrResizePinned) {
					t.Fatalf("seed %d op %d: resize: %v", seed, op, err)
				}
			default: // occasional flush
				if r.Intn(8) == 0 {
					a.Flush(func(v Fragment) { drop(v.ID) })
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if a.Len() != len(live) {
				t.Fatalf("seed %d op %d: arena has %d, model has %d", seed, op, a.Len(), len(live))
			}
			if a.indexed && op < indexFrom {
				t.Fatalf("seed %d op %d: free-run index built before any first-fit query", seed, op)
			}
		}
		if !a.indexed {
			t.Fatalf("seed %d: free-run index never built", seed)
		}
	}
}

func TestFragmentationRatio(t *testing.T) {
	a := New(400)
	if a.FragmentationRatio() != 0 {
		t.Error("empty arena should have 0 fragmentation (one free run)")
	}
	mustInsert(t, a, Fragment{ID: 1, Size: 100})
	mustInsert(t, a, Fragment{ID: 2, Size: 100})
	mustInsert(t, a, Fragment{ID: 3, Size: 100})
	mustInsert(t, a, Fragment{ID: 4, Size: 100})
	if a.FragmentationRatio() != 0 {
		t.Error("full arena should report 0 fragmentation")
	}
	if a.Occupancy() != 1 {
		t.Errorf("occupancy = %v", a.Occupancy())
	}
	// Punch two non-adjacent holes: free = 200, largest run = 100.
	a.Delete(1, false)
	a.Delete(3, false)
	if r := a.FragmentationRatio(); r != 0.5 {
		t.Errorf("fragmentation = %v, want 0.5", r)
	}
	if a.Occupancy() != 0.5 {
		t.Errorf("occupancy = %v", a.Occupancy())
	}
}

func TestResizeGrow(t *testing.T) {
	a := New(300)
	for id := uint64(1); id <= 3; id++ {
		mustInsert(t, a, Fragment{ID: id, Size: 100})
	}
	// Full arena: growing must append a fresh free tail node.
	if err := a.Resize(500, nil); err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 500 || a.Free() != 200 || a.Len() != 3 {
		t.Fatalf("capacity=%d free=%d len=%d", a.Capacity(), a.Free(), a.Len())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The new space is immediately placeable. (The circular sweep itself only
	// absorbs it when the cursor wraps to the tail — §4.3 semantics.)
	if err := a.PlaceFirstFit(Fragment{ID: 4, Size: 150}); err != nil {
		t.Fatalf("place into grown tail: %v", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Free tail present: growing must extend it in place.
	if err := a.Resize(600, nil); err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 600 || a.Free() != 150 {
		t.Fatalf("capacity=%d free=%d", a.Capacity(), a.Free())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeShrinkEvictsTail(t *testing.T) {
	a := New(400)
	for id := uint64(1); id <= 4; id++ {
		mustInsert(t, a, Fragment{ID: id, Size: 100})
	}
	// Cut at 250: fragments 3 (200-300) and 4 (300-400) overlap the tail and
	// must be evicted in address order.
	var ev []Fragment
	if err := a.Resize(250, func(v Fragment) { ev = append(ev, v) }); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev[0].ID != 3 || ev[1].ID != 4 {
		t.Fatalf("evicted %v, want fragments 3 then 4", ev)
	}
	if a.Capacity() != 250 || a.Used() != 200 || a.Free() != 50 || a.Len() != 2 {
		t.Fatalf("capacity=%d used=%d free=%d len=%d", a.Capacity(), a.Used(), a.Free(), a.Len())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := a.PlaceFirstFit(Fragment{ID: 5, Size: 50}); err != nil {
		t.Fatalf("place into shrunk tail: %v", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeShrinkExactCut(t *testing.T) {
	// Surviving fragments end exactly at the cut: the tail node is dropped
	// entirely rather than truncated.
	a := New(400)
	for id := uint64(1); id <= 4; id++ {
		mustInsert(t, a, Fragment{ID: id, Size: 100})
	}
	// Build the free-run index: dropping the tail node must drop its run.
	if a.LargestFreeRun() != 0 {
		t.Fatal("full arena reports a free run")
	}
	var ev []Fragment
	if err := a.Resize(200, func(v Fragment) { ev = append(ev, v) }); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 {
		t.Fatalf("evicted %v, want 2 victims", ev)
	}
	if a.Capacity() != 200 || a.Free() != 0 || a.Len() != 2 {
		t.Fatalf("capacity=%d free=%d len=%d", a.Capacity(), a.Free(), a.Len())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The arena still works at the new size.
	ev = mustInsert(t, a, Fragment{ID: 5, Size: 100})
	if len(ev) != 1 {
		t.Fatalf("post-shrink insert evicted %v, want 1 victim", ev)
	}
}

func TestResizeShrinkBlockedByPinned(t *testing.T) {
	a := New(300)
	for id := uint64(1); id <= 3; id++ {
		mustInsert(t, a, Fragment{ID: id, Size: 100})
	}
	if !a.SetUndeletable(3, true) {
		t.Fatal("pin failed")
	}
	// Fragment 3 (200-300) overlaps the cut at 250: refuse, mutate nothing.
	var ev []Fragment
	err := a.Resize(250, func(v Fragment) { ev = append(ev, v) })
	if !errors.Is(err, ErrResizePinned) {
		t.Fatalf("err = %v, want ErrResizePinned", err)
	}
	if len(ev) != 0 {
		t.Fatalf("refused resize evicted %v", ev)
	}
	if a.Capacity() != 300 || a.Len() != 3 || a.Used() != 300 {
		t.Fatalf("refused resize mutated arena: capacity=%d len=%d used=%d", a.Capacity(), a.Len(), a.Used())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A pinned fragment clear of the cut does not block.
	a.SetUndeletable(3, false)
	a.SetUndeletable(1, true)
	if err := a.Resize(250, nil); err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 250 || !a.Contains(1) || !a.Contains(2) || a.Contains(3) {
		t.Fatal("shrink past an in-range pin went wrong")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeErrorsAndNoop(t *testing.T) {
	a := New(300)
	if err := a.Resize(0, nil); err == nil {
		t.Error("resize to zero should fail")
	}
	if err := a.Resize(300, nil); err != nil {
		t.Errorf("same-capacity resize = %v, want nil no-op", err)
	}
	if a.Capacity() != 300 {
		t.Errorf("capacity = %d", a.Capacity())
	}
}

func TestResizeRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := New(2048)
	live := map[uint64]uint64{} // id -> size
	id := uint64(1)
	for op := 0; op < 3000; op++ {
		switch r.Intn(5) {
		case 0: // resize within [256, 4096]
			target := uint64(256 + r.Intn(3840))
			if err := a.Resize(target, func(v Fragment) {
				if _, ok := live[v.ID]; !ok {
					t.Fatalf("op %d: resize evicted dead fragment %d", op, v.ID)
				}
				delete(live, v.ID)
			}); err != nil {
				t.Fatalf("op %d: resize(%d): %v", op, target, err)
			}
			if a.Capacity() != target {
				t.Fatalf("op %d: capacity %d, want %d", op, a.Capacity(), target)
			}
		case 1: // delete a random live fragment
			for k := range live {
				if _, err := a.Delete(k, false); err != nil {
					t.Fatalf("op %d: delete %d: %v", op, k, err)
				}
				delete(live, k)
				break
			}
		default: // insert
			f := Fragment{ID: id, Size: uint64(16 + r.Intn(int(a.Capacity()/4)))}
			id++
			err := a.Insert(f, func(v Fragment) {
				if _, ok := live[v.ID]; !ok {
					t.Fatalf("op %d: evicted dead fragment %d", op, v.ID)
				}
				delete(live, v.ID)
			})
			if err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			live[f.ID] = f.Size
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if a.Len() != len(live) {
			t.Fatalf("op %d: arena %d vs model %d", op, a.Len(), len(live))
		}
		var want uint64
		for _, s := range live {
			want += s
		}
		if a.Used() != want {
			t.Fatalf("op %d: used %d vs model %d", op, a.Used(), want)
		}
	}
}
