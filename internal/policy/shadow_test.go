package policy

import (
	"math/rand"
	"testing"

	"repro/internal/codecache"
	"repro/internal/idtab"
)

// tableLen counts the entries a table holds: its slice slots and its map
// entries.
func tableLen(t *idtab.Table[lruLink]) int {
	n := 0
	t.Each(func(uint64, lruLink) { n++ })
	return n
}

// TestLRUBookkeepingStaysBounded: LRU bookkeeping is one list entry per
// trace ID, however many hits there are. Churn a handful of residents hard,
// then churn again across evictions, and check that the list holds exactly
// the residents, the table does not grow with hits, and the next victim is
// the oldest evictable resident.
func TestLRUBookkeepingStaysBounded(t *testing.T) {
	l := NewLRU()
	a := codecache.New(1000)
	insertN(t, l, a, []uint64{1, 2, 3, 4, 5}, 100)
	table := tableLen(&l.links)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		id := uint64(1 + rng.Intn(5))
		a.Access(id)
		l.OnAccess(a, id)
		if l.n != a.Len() || tableLen(&l.links) != table {
			t.Fatalf("after %d accesses: %d list entries, %d-entry table, for %d residents (table was %d)",
				i+1, l.n, tableLen(&l.links), a.Len(), table)
		}
	}
	// The bound must survive evictions too: fill the cache so victims leave,
	// then churn again.
	for id := uint64(10); id < 30; id++ {
		if err := l.Insert(a, codecache.Fragment{ID: id, Size: 100}, nil); err != nil {
			t.Fatal(err)
		}
	}
	table = tableLen(&l.links)
	for i := 0; i < 10000; i++ {
		id := uint64(10 + rng.Intn(10))
		if a.Access(id) {
			l.OnAccess(a, id)
		}
		if l.n != a.Len() || tableLen(&l.links) != table {
			t.Fatalf("post-eviction churn %d: %d list entries, %d-entry table, for %d residents (table was %d)",
				i+1, l.n, tableLen(&l.links), a.Len(), table)
		}
	}
	// The next victim is the LRU resident.
	if v, ok := l.victim(a); ok {
		if f, lookupOK := a.Lookup(v); !lookupOK {
			t.Fatalf("victim %d not resident", v)
		} else {
			a.Visit(func(g *codecache.Fragment) bool {
				if !g.Undeletable && g.LastAccess < f.LastAccess {
					t.Errorf("victim %d (last %d) is not the LRU resident; %d is older (last %d)",
						v, f.LastAccess, g.ID, g.LastAccess)
					return false
				}
				return true
			})
		}
	} else {
		t.Fatal("no victim in a full cache")
	}
	// IDs past idtab.Dense live in the table's map, and an evicted one must
	// leave it: the map holds only listed traces.
	l, a = NewLRU(), codecache.New(1000)
	for id := uint64(idtab.Dense); id < idtab.Dense+40; id++ {
		if err := l.Insert(a, codecache.Fragment{ID: id, Size: 100}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := tableLen(&l.links); n != a.Len() {
		t.Errorf("spilled IDs: %d table entries for %d residents", n, a.Len())
	}
}

// TestShadowMatchesLiveLRU is the shadow-model equivalence test: a Shadow
// wrapping a fresh LRU, fed exactly the stimulus a live LRU tier sees, must
// reproduce the live tier's residency and hit count exactly. This is the
// property the online selector leans on — a shadow of the live policy IS the
// live tier, so any divergence between shadow scores measures the policies,
// not the model.
func TestShadowMatchesLiveLRU(t *testing.T) {
	const capacity = 1200
	live := NewLRU()
	arena := codecache.New(capacity)
	sh := NewShadow(capacity, NewLRU())

	rng := rand.New(rand.NewSource(42))
	var liveHits uint64
	next := uint64(1)
	for step := 0; step < 5000; step++ {
		if next == 1 || rng.Intn(4) == 0 {
			// A new trace arrives in both worlds.
			f := codecache.Fragment{ID: next, Size: 80 + uint64(rng.Intn(5))*40}
			next++
			if err := live.Insert(arena, f, nil); err != nil {
				t.Fatal(err)
			}
			sh.Insert(f)
			continue
		}
		// A demand probe over the recent id space.
		lo := uint64(1)
		if next > 20 {
			lo = next - 20
		}
		id := lo + uint64(rng.Int63n(int64(next-lo)))
		hit := arena.Access(id)
		if hit {
			liveHits++
			live.OnAccess(arena, id)
		}
		if got := sh.Probe(id); got != hit {
			t.Fatalf("step %d: shadow probe(%d) = %v, live = %v", step, id, got, hit)
		}
	}
	if sh.TotalHits() != liveHits {
		t.Fatalf("shadow scored %d hits, live %d", sh.TotalHits(), liveHits)
	}
	// Residency must match fragment for fragment.
	if sh.Arena().Len() != arena.Len() {
		t.Fatalf("shadow holds %d fragments, live holds %d", sh.Arena().Len(), arena.Len())
	}
	arena.Visit(func(f *codecache.Fragment) bool {
		if !sh.Arena().Contains(f.ID) {
			t.Errorf("live resident %d missing from shadow", f.ID)
		}
		return true
	})
}

// TestShadowMirrorsNonPolicyRemovals: removals the live tier suffers for
// non-policy reasons (promotions, unmaps, pins) must reach the model, and
// capacity shifts must never leave the model oversized.
func TestShadowMirrorsNonPolicyRemovals(t *testing.T) {
	sh := NewShadow(1000, NewLRU())
	for id := uint64(1); id <= 5; id++ {
		sh.Insert(codecache.Fragment{ID: id, Size: 100, Module: uint16(id % 2)})
	}
	sh.Remove(3)
	if sh.Arena().Contains(3) {
		t.Error("Remove left fragment 3 resident")
	}
	sh.Remove(3) // absent: must be a no-op
	sh.UnmapModule(1)
	if sh.Arena().Contains(1) || sh.Arena().Contains(5) {
		t.Error("UnmapModule left module-1 fragments resident")
	}
	sh.SetPinned(2, true)
	sh.Resize(150)
	if sh.Arena().Capacity() != 150 {
		t.Fatalf("capacity %d after Resize(150)", sh.Arena().Capacity())
	}
	if sh.Arena().Used() > 150 {
		t.Fatalf("model oversized: %d bytes in a 150-byte arena", sh.Arena().Used())
	}
}

// TestShadowProbeAllocationFree: the selector probes every shadow on every
// tier access — the hot path must not allocate in steady state.
func TestShadowProbeAllocationFree(t *testing.T) {
	sh := NewShadow(1000, NewLRU())
	for id := uint64(1); id <= 8; id++ {
		sh.Insert(codecache.Fragment{ID: id, Size: 100})
	}
	// Warm up: every table the hit path touches is sized at insert, so this
	// only settles the run before measuring.
	for i := 0; i < 4096; i++ {
		sh.Probe(uint64(1 + i%8))
	}
	id := uint64(0)
	if avg := testing.AllocsPerRun(2048, func() {
		sh.Probe(uint64(1 + id%8))
		id++
	}); avg != 0 {
		t.Errorf("Shadow.Probe allocates %.2f per op on the hit path", avg)
	}
}
