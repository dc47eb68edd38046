package core

import (
	"slices"
	"testing"

	"repro/internal/codecache"
	"repro/internal/obs"
)

// The fuzzed tier holds about four of its sixteen traces. Trace k has ID
// k+1, module k%3, head 0x100*(k%6) and size 60+40*(k%4): traces k, k+6 and
// k+12 share a module and head but not always a size, so adoption meets
// both a matching and a mismatched resident copy of one identity.
const (
	fuzzSharedCapacity = 600
	fuzzSharedTraces   = 16
)

func fuzzSharedFrag(k uint64) codecache.Fragment {
	return codecache.Fragment{ID: k + 1, Size: 60 + 40*(k%4), Module: uint16(k % 3), HeadAddr: 0x100 * (k % 6)}
}

// Shared-tier operations, chosen by an op byte's low three bits.
const (
	opPromote = iota
	opAdopt
	opAttach
	opInsertWarm
	opPin
	opAccess
	opUnmap
)

// sharedOp encodes one operation as its two bytes: the op byte (kind in
// bits 0-2, a flag in bit 7, an owner or owner mask in bits 3-6) and the
// argument byte (owner in bits 0-1, trace in bits 2-5).
func sharedOp(kind, flags byte, proc int, k uint64) []byte {
	return []byte{kind | flags, byte(proc) | byte(k)<<2}
}

// refUnmapDrains is the scan UnmapModule made before the tier kept a module
// index: every resident trace in address order, keeping those of module m
// whose only owner is proc. Those are exactly the traces proc's unmap drains.
func refUnmapDrains(sp *SharedPersistent, proc int, m uint16) []uint64 {
	var out []uint64
	for _, f := range sp.arena.Fragments() {
		if f.Module == m && slices.Equal(sp.traces[f.ID].owners, []int{proc}) {
			out = append(out, f.ID)
		}
	}
	return out
}

// runSharedOps applies the operations data encodes to a fresh tier,
// checking the tier's invariants after each and each unmap against
// refUnmapDrains.
func runSharedOps(t *testing.T, data []byte) {
	t.Helper()
	var events []obs.Event
	sp := NewSharedPersistent(fuzzSharedCapacity, obs.Func(func(e obs.Event) { events = append(events, e) }))
	for ; len(data) >= 2; data = data[2:] {
		op, arg := data[0], data[1]
		flag := op&0x80 != 0
		proc := int(arg & 3)
		k := uint64(arg>>2) % fuzzSharedTraces
		f := fuzzSharedFrag(k)
		switch op & 7 {
		case opPromote:
			var keep []int
			if flag {
				keep = append(keep, int(op>>3)&3)
			}
			_ = sp.Promote(proc, f, keep...)
		case opAdopt:
			size := f.Size
			if flag {
				size++
			}
			id, ok := sp.Adopt(proc, f.Module, f.HeadAddr, size)
			pub := sp.publishedLocked(f.Module, f.HeadAddr)
			if ok != (pub != nil && pub.size == size) || ok && (id != pub.id || !slices.Contains(pub.owners, proc)) {
				t.Fatalf("Adopt(%d, %d, %#x, %d) = (%d, %v) with published %+v", proc, f.Module, f.HeadAddr, size, id, ok, pub)
			}
		case opAttach:
			sp.Attach(proc, f.ID)
		case opInsertWarm:
			var owners []int
			for p := 0; p < 4; p++ {
				if op>>(3+p)&1 != 0 {
					owners = append(owners, p)
				}
			}
			_ = sp.InsertWarm(owners, f)
		case opPin:
			sp.SetUndeletable(f.ID, flag)
		case opAccess:
			sp.Access(proc, f.ID)
		default:
			m := f.Module
			want := refUnmapDrains(sp, proc, m)
			kept := make(map[uint64]int)
			for _, f := range sp.arena.Fragments() {
				if e := sp.traces[f.ID]; f.Module == m && len(e.owners) > 1 && slices.Contains(e.owners, proc) {
					kept[e.id] = len(e.owners) - 1
				}
			}
			events = events[:0]
			out := sp.UnmapModule(proc, m)
			var got []uint64
			for _, d := range out {
				got = append(got, d.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("UnmapModule(%d, %d) drained %v, the full scan drains %v", proc, m, got, want)
			}
			if len(events) != len(out) {
				t.Fatalf("UnmapModule(%d, %d) drained %d traces with %d events", proc, m, len(out), len(events))
			}
			for i, e := range events {
				d := out[i]
				if e.Kind != obs.KindUnmap || e.Trace != d.ID || e.Size != d.Size || e.Module != m || e.From != LevelPersistent || e.Proc != proc {
					t.Fatalf("UnmapModule(%d, %d) event %d = %+v for drained %+v", proc, m, i, e, d)
				}
			}
			for id, n := range kept {
				if got := sp.Owners(id); got != n || slices.Contains(sp.traces[id].owners, proc) {
					t.Fatalf("UnmapModule(%d, %d) left trace %d with owners %v, want %d without %d", proc, m, id, sp.traces[id].owners, n, proc)
				}
			}
		}
		if err := sp.CheckInvariants(); err != nil {
			t.Fatalf("after op %#x %#x: %v", op, arg, err)
		}
	}
}

// outOfOrderPromotions fill the tier until the pseudo-circular sweep wraps:
// trace 6, promoted last, evicts traces 1 and 0 at the bottom of the arena
// and lands below trace 3, so module 0's index lists 3 before 6 although 6
// sits at the lower address.
var outOfOrderPromotions = []uint64{1, 0, 2, 3, 4, 6}

// outOfOrderSeed makes those promotions as owner 0, whose unmap of module 0
// then drains traces 6 and 3 in that address order; a second unmap drains
// nothing, and owner 1, which owns nothing, drains nothing either.
var outOfOrderSeed = func() []byte {
	var data []byte
	for _, k := range outOfOrderPromotions {
		data = append(data, sharedOp(opPromote, 0, 0, k)...)
	}
	return slices.Concat(data,
		sharedOp(opUnmap, 0, 0, 0),
		sharedOp(opUnmap, 0, 0, 0),
		sharedOp(opUnmap, 0, 1, 1),
	)
}()

// FuzzSharedOps drives the shared tier through a byte-chosen sequence of
// Promote, Adopt, Attach, InsertWarm, SetUndeletable, Access and
// UnmapModule calls from four owners over three modules. After every call
// the tier's invariants must hold, and every UnmapModule must drain what
// the full-tier scan it replaced drains, in address order, with one
// KindUnmap event each.
func FuzzSharedOps(f *testing.F) {
	f.Add(outOfOrderSeed)
	f.Add(slices.Concat(
		sharedOp(opInsertWarm, 0x18, 0, 4),
		sharedOp(opPromote, 0x80|0x10, 3, 10),
		sharedOp(opAdopt, 0x80, 2, 4),
		sharedOp(opAdopt, 0, 2, 4),
		sharedOp(opPin, 0x80, 0, 4),
		sharedOp(opPromote, 0, 1, 2),
		sharedOp(opPromote, 0, 1, 5),
		sharedOp(opAccess, 0, 1, 4),
		sharedOp(opUnmap, 0, 1, 4),
		sharedOp(opUnmap, 0, 2, 4),
		sharedOp(opAttach, 0, 3, 10),
		sharedOp(opUnmap, 0, 3, 10),
	))
	f.Fuzz(runSharedOps)
}

// TestSharedUnmapAddressOrder pins the seed FuzzSharedOps starts from: its
// module 0 index really is out of address order before the unmap, so the
// fuzz checks the sort and not just an already ordered list.
func TestSharedUnmapAddressOrder(t *testing.T) {
	sp := NewSharedPersistent(fuzzSharedCapacity, nil)
	for _, k := range outOfOrderPromotions {
		if err := sp.Promote(0, fuzzSharedFrag(k)); err != nil {
			t.Fatal(err)
		}
	}
	var offs []uint64
	for _, e := range sp.modules[0].resident {
		off, _ := sp.arena.Offset(e.id)
		offs = append(offs, off)
	}
	if len(offs) < 2 || slices.IsSorted(offs) {
		t.Fatalf("module 0's index offsets %v are in address order; the seed tests no sort", offs)
	}
	runSharedOps(t, outOfOrderSeed)
}
