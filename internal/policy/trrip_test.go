package policy

import (
	"testing"

	"repro/internal/codecache"
)

// TestTRRIPTemperatureSeededInsertion checks the core TRRIP contract: a
// trace's insertion heat decides how close to eviction it starts. A cold
// fresh trace must be chosen as victim before a hot promoted one and before
// a resident that just hit.
func TestTRRIPTemperatureSeededInsertion(t *testing.T) {
	p := NewTRRIP()
	a := codecache.New(300)
	// id 1 arrives hot (a promoted victim with re-reference history), ids 2
	// and 3 arrive cold (fresh traces, no accesses yet).
	if err := p.Insert(a, codecache.Fragment{ID: 1, Size: 100, AccessCount: 5}, nil); err != nil {
		t.Fatal(err)
	}
	insertN(t, p, a, []uint64{2, 3}, 100)
	// id 3 hits: its RRPV resets to 0.
	a.Access(3)
	p.OnAccess(a, 3)
	// Inserting id 4 must evict id 2 — the only cold, un-hit resident.
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2] (cold and never hit)", ev)
	}
	if !a.Contains(1) || !a.Contains(3) || !a.Contains(4) {
		t.Error("hot and recently-hit residents must survive")
	}
}

// TestTRRIPWarmOutranksCold: a trace with some history inserts warm and
// outlives a cold one under pressure.
func TestTRRIPWarmOutranksCold(t *testing.T) {
	p := NewTRRIP()
	a := codecache.New(200)
	if err := p.Insert(a, codecache.Fragment{ID: 1, Size: 100, AccessCount: 1}, nil); err != nil {
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
		t.Fatalf("evicted %v, want the cold trace [2]", ev)
	}
}

// TestTRRIPUniformColdEvictsInAddressOrder: with no heat signal anywhere the
// policy must still be deterministic — equal-RRPV victims fall to address
// order.
func TestTRRIPUniformColdEvictsInAddressOrder(t *testing.T) {
	p := NewTRRIP()
	a := codecache.New(300)
	insertN(t, p, a, []uint64{1, 2, 3}, 100)
	var ev []uint64
	onEvict := func(v codecache.Fragment) { ev = append(ev, v.ID) }
	for id := uint64(4); id <= 6; id++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 100}, onEvict); err != nil {
			t.Fatal(err)
		}
	}
	if len(ev) != 3 || ev[0] != 1 || ev[1] != 2 || ev[2] != 3 {
		t.Fatalf("eviction order %v, want [1 2 3]", ev)
	}
}

// TestTRRIPAgingEventuallyEvictsProtected: aging must erode a hit's
// protection, or one early hit pins a dead trace forever.
func TestTRRIPAgingEventuallyEvictsProtected(t *testing.T) {
	p := NewTRRIP()
	a := codecache.New(200)
	insertN(t, p, a, []uint64{1, 2}, 100)
	a.Access(1)
	p.OnAccess(a, 1) // id 1 at RRPV 0
	var ev []uint64
	onEvict := func(v codecache.Fragment) { ev = append(ev, v.ID) }
	// Each insertion evicts the current max-RRPV resident and ages id 1; the
	// never-accessed churn keeps losing first, but id 1 must fall eventually.
	for id := uint64(3); id <= 12; id++ {
		if err := p.Insert(a, codecache.Fragment{ID: id, Size: 100}, onEvict); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range ev {
		if v == 1 {
			return
		}
	}
	t.Fatalf("id 1 never evicted over %v; aging is broken", ev)
}

func TestTRRIPSkipsPinnedAndReferenced(t *testing.T) {
	p := NewTRRIP()
	a := codecache.New(300)
	insertN(t, p, a, []uint64{1, 2, 3}, 100)
	if !a.SetUndeletable(1, true) {
		t.Fatal("pin failed")
	}
	if !a.Retain(2) {
		t.Fatal("retain failed")
	}
	var ev []uint64
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 100}, func(v codecache.Fragment) {
		ev = append(ev, v.ID)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != 3 {
		t.Fatalf("evicted %v, want [3] (1 pinned, 2 referenced)", ev)
	}
	// No resident was at Max, so the search aged the evictable ones; the
	// pinned and referenced residents keep their predictions.
	if p.get(1) != p.Cold || p.get(2) != p.Cold {
		t.Errorf("pinned and referenced residents aged to %d and %d, want cold %d", p.get(1), p.get(2), p.Cold)
	}
}

// TestTRRIPAdopt: a freshly installed instance (an online-selector switch)
// classifies inherited residents by their in-place heat instead of treating
// the whole cache as unknown.
func TestTRRIPAdopt(t *testing.T) {
	seed := NewLRU()
	a := codecache.New(300)
	insertN(t, seed, a, []uint64{1, 2, 3}, 100)
	// id 2 ran hot in place.
	for i := 0; i < 3; i++ {
		a.Access(2)
		seed.OnAccess(a, 2)
	}
	p := NewTRRIP()
	p.Adopt(a)
	var ev []uint64
	onEvict := func(v codecache.Fragment) { ev = append(ev, v.ID) }
	if err := p.Insert(a, codecache.Fragment{ID: 4, Size: 100}, onEvict); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(a, codecache.Fragment{ID: 5, Size: 100}, onEvict); err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev[0] != 1 || ev[1] != 3 {
		t.Fatalf("evicted %v, want [1 3] (2 adopted as hot)", ev)
	}
	if !a.Contains(2) {
		t.Error("hot adopted resident evicted")
	}
}

// TestTRRIPParamClamping: registry parameters above max clamp instead of
// wrapping the uint8 RRPV space.
func TestTRRIPParamClamping(t *testing.T) {
	fac, err := Parse("trrip:max=3,cold=9,warm=9")
	if err != nil {
		t.Fatal(err)
	}
	p := fac.New().(*TRRIP)
	if p.Cold != 3 || p.Warm != 3 {
		t.Errorf("cold/warm = %d/%d, want clamped to max 3", p.Cold, p.Warm)
	}
	fac, err = Parse("trrip:max=0")
	if err != nil {
		t.Fatal(err)
	}
	if p := fac.New().(*TRRIP); p.Max != 1 {
		t.Errorf("max = %d, want floor 1", p.Max)
	}
}
