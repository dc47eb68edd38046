package core

import (
	"sync"
	"testing"

	"repro/internal/codecache"
	"repro/internal/obs"
)

func sharedFrag(id uint64, module uint16, head uint64) codecache.Fragment {
	return codecache.Fragment{ID: id, Size: 100, Module: module, HeadAddr: head}
}

func TestSharedPromotePublishAdopt(t *testing.T) {
	sp := NewSharedPersistent(1000, nil)
	if err := sp.Promote(0, sharedFrag(1, 7, 0x40)); err != nil {
		t.Fatal(err)
	}
	if !sp.Contains(1) {
		t.Fatal("promoted trace not resident")
	}
	id, ok := sp.ResidentKey(7, 0x40)
	if !ok || id != 1 {
		t.Fatalf("ResidentKey = %d,%v; want 1,true", id, ok)
	}
	if n := sp.Owners(1); n != 1 {
		t.Fatalf("owners = %d, want 1", n)
	}
	// A second process adopts the published trace.
	if !sp.Attach(1, 1) {
		t.Fatal("attach to resident trace failed")
	}
	if n := sp.Owners(1); n != 2 {
		t.Fatalf("owners after attach = %d, want 2", n)
	}
	// Re-attaching the same process does not double-count.
	if !sp.Attach(1, 1) {
		t.Fatal("duplicate attach reported failure")
	}
	if n := sp.Owners(1); n != 2 {
		t.Fatalf("owners after duplicate attach = %d, want 2", n)
	}
	// A promotion of an already-resident ID merges instead of inserting.
	if err := sp.Promote(0, sharedFrag(1, 7, 0x40)); err != nil {
		t.Fatal(err)
	}
	s := sp.Stats()
	if s.Promotions != 1 || s.Merged != 1 || s.Adoptions != 2 {
		t.Errorf("stats = %+v, want 1 promotion, 1 merged, 2 adoptions", s)
	}
	if sp.Attach(0, 99) {
		t.Error("attach to a non-resident trace succeeded")
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedAdoptAndKeepOwners: Adopt attaches to a size-matched published
// trace in one call and counts every success as Attach does, a repeated
// owner included; Promote's keep owners attach on an insert and on a merge
// without counting adoptions, and not at all when the tier refuses the
// trace.
func TestSharedAdoptAndKeepOwners(t *testing.T) {
	const keep = 9
	sp := NewSharedPersistent(1000, nil)
	if err := sp.Promote(0, sharedFrag(1, 7, 0x40), keep); err != nil {
		t.Fatal(err)
	}
	if n := sp.Owners(1); n != 2 {
		t.Fatalf("owners after a promotion with a keep owner = %d, want 2", n)
	}
	if id, ok := sp.Adopt(1, 7, 0x40, 101); ok {
		t.Fatalf("Adopt of a size-mismatched trace = (%d, true)", id)
	}
	if id, ok := sp.Adopt(1, 7, 0x80, 100); ok {
		t.Fatalf("Adopt of an unpublished identity = (%d, true)", id)
	}
	for i := 0; i < 2; i++ {
		if id, ok := sp.Adopt(1, 7, 0x40, 100); !ok || id != 1 {
			t.Fatalf("Adopt #%d = (%d, %v), want (1, true)", i+1, id, ok)
		}
	}
	if err := sp.Promote(2, sharedFrag(1, 7, 0x40), keep); err != nil {
		t.Fatal(err)
	}
	if n := sp.Owners(1); n != 4 {
		t.Fatalf("owners after adoption and a merging promotion = %d, want 4", n)
	}
	if err := sp.Promote(0, codecache.Fragment{ID: 2, Size: 2000, Module: 7, HeadAddr: 0x80}, keep); err == nil {
		t.Fatal("promotion of a trace bigger than the tier succeeded")
	}
	if n := sp.Owners(2); n != 0 {
		t.Fatalf("refused trace has %d owners", n)
	}
	if s := sp.Stats(); s.Promotions != 1 || s.Merged != 1 || s.Adoptions != 2 {
		t.Errorf("stats = %+v, want 1 promotion, 1 merged, 2 adoptions", s)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedOwnerAwareUnmap(t *testing.T) {
	sp := NewSharedPersistent(1000, nil)
	if err := sp.Promote(0, sharedFrag(1, 7, 0x40)); err != nil {
		t.Fatal(err)
	}
	if !sp.Attach(1, 1) {
		t.Fatal("attach failed")
	}

	// Process 0 unmaps the module: its reference drops, but process 1 still
	// owns the trace, so it stays resident and executable.
	if dead := sp.UnmapModule(0, 7); len(dead) != 0 {
		t.Fatalf("first unmap drained %v, want none", dead)
	}
	if !sp.Contains(1) {
		t.Fatal("trace died while another process still owned it")
	}
	if n := sp.Owners(1); n != 1 {
		t.Fatalf("owners after first unmap = %d, want 1", n)
	}
	if !sp.Access(1, 1) {
		t.Fatal("surviving owner cannot access the trace")
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Process 1's unmap drains the last reference: now the trace dies.
	dead := sp.UnmapModule(1, 7)
	if len(dead) != 1 || dead[0].ID != 1 {
		t.Fatalf("second unmap drained %v, want trace 1", dead)
	}
	if sp.Contains(1) {
		t.Fatal("trace survived its last owner's unmap")
	}
	if _, ok := sp.ResidentKey(7, 0x40); ok {
		t.Fatal("drained trace still published")
	}
	s := sp.Stats()
	if s.Drained != 1 || s.DrainedBytes != 100 {
		t.Errorf("drain stats = %+v", s)
	}
	// A third unmap of the same module is a no-op.
	if dead := sp.UnmapModule(1, 7); len(dead) != 0 {
		t.Fatalf("idempotent unmap drained %v", dead)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedUnmapOnlyDropsCallersTraces(t *testing.T) {
	sp := NewSharedPersistent(1000, nil)
	// Trace 1 owned by proc 0 only; trace 2 owned by proc 1 only. Proc 0's
	// unmap of the module must not touch proc 1's trace.
	if err := sp.Promote(0, sharedFrag(1, 7, 0x40)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Promote(1, sharedFrag(2, 7, 0x80)); err != nil {
		t.Fatal(err)
	}
	dead := sp.UnmapModule(0, 7)
	if len(dead) != 1 || dead[0].ID != 1 {
		t.Fatalf("unmap drained %v, want only trace 1", dead)
	}
	if !sp.Contains(2) {
		t.Fatal("unmap killed a trace the caller never owned")
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedCapacityEvictionOverridesRefs(t *testing.T) {
	var evicted []obs.Event
	sp := NewSharedPersistent(300, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindEvict {
			evicted = append(evicted, e)
		}
	}))
	for id := uint64(1); id <= 3; id++ {
		if err := sp.Promote(0, sharedFrag(id, 7, 0x40*id)); err != nil {
			t.Fatal(err)
		}
		if !sp.Attach(1, id) {
			t.Fatal("attach failed")
		}
	}
	// The tier is full; the next promotion must evict even though every
	// resident trace is multiply referenced — capacity pressure wins.
	if err := sp.Promote(0, sharedFrag(4, 7, 0x40*4)); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Trace != 1 {
		t.Fatalf("evictions = %v, want trace 1", evicted)
	}
	if evicted[0].From != LevelPersistent || evicted[0].Proc != 0 {
		t.Errorf("eviction event = %+v, want persistent level, proc 0", evicted[0])
	}
	if sp.Contains(1) {
		t.Fatal("victim still resident")
	}
	if _, ok := sp.ResidentKey(7, 0x40); ok {
		t.Fatal("victim still published")
	}
	if n := sp.Owners(1); n != 0 {
		t.Fatalf("victim still has %d owners", n)
	}
	s := sp.Stats()
	if s.Evicted != 1 || s.EvictedBytes != 100 {
		t.Errorf("eviction stats = %+v", s)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedInsertWarmOwnerless(t *testing.T) {
	sp := NewSharedPersistent(1000, nil)
	// Warm-start records enter with no owners; processes attach at startup.
	if err := sp.InsertWarm(nil, sharedFrag(1, 7, 0x40)); err != nil {
		t.Fatal(err)
	}
	if !sp.Contains(1) || sp.Owners(1) != 0 {
		t.Fatalf("warm trace resident=%v owners=%d", sp.Contains(1), sp.Owners(1))
	}
	if !sp.Attach(0, 1) || !sp.Attach(1, 1) {
		t.Fatal("attach to warm trace failed")
	}
	if n := sp.Owners(1); n != 2 {
		t.Fatalf("owners = %d, want 2", n)
	}
	sp.UnmapModule(0, 7)
	if !sp.Contains(1) {
		t.Fatal("warm trace died with an owner remaining")
	}
	sp.UnmapModule(1, 7)
	if sp.Contains(1) {
		t.Fatal("warm trace survived its last unmap")
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedConcurrentAccess(t *testing.T) {
	// Hammer the tier from several goroutines; the race detector checks the
	// locking, CheckInvariants the end state.
	sp := NewSharedPersistent(2000, nil)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint64(i%10 + 1)
				var keep []int
				if i%20 == 0 {
					keep = append(keep, 4) // a keep-warm owner no goroutine unmaps
				}
				if err := sp.Promote(p, sharedFrag(id, uint16(id%3), 0x40*id), keep...); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					sp.Adopt(p, uint16(id%3), 0x40*id, 100)
				} else if rid, ok := sp.ResidentKey(uint16(id%3), 0x40*id); ok {
					sp.Attach(p, rid)
					sp.Access(p, rid)
				}
				if i%50 == 49 {
					sp.UnmapModule(p, uint16(id%3))
				}
			}
		}(p)
	}
	wg.Wait()
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
