package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/codecache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
)

func TestLevelString(t *testing.T) {
	for l := LevelUnified; l <= LevelPersistent; l++ {
		if strings.Contains(l.String(), "level(") {
			t.Errorf("level %d has no name", l)
		}
	}
	if Level(9).String() != "level(9)" {
		t.Errorf("unknown level renders as %q", Level(9).String())
	}
}

func TestUnifiedBasics(t *testing.T) {
	var evicted []uint64
	u := NewUnified(300, nil, obs.Func(func(e obs.Event) {
		if e.Kind != obs.KindEvict {
			return
		}
		if e.From != LevelUnified {
			t.Errorf("eviction from %s", e.From)
		}
		evicted = append(evicted, e.Trace)
	}))
	if u.Name() != "unified/pseudo-circular" {
		t.Errorf("name = %q", u.Name())
	}
	for id := uint64(1); id <= 4; id++ {
		if err := u.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
	if !u.Access(2) {
		t.Error("access to resident trace failed")
	}
	if u.Access(1) {
		t.Error("access to evicted trace succeeded")
	}
	if !u.Contains(3) || u.Contains(1) {
		t.Error("Contains wrong")
	}
	s := u.Stats()
	if s.Inserts != 4 || s.Accesses != 2 || s.Hits != 1 || s.Evicted != 1 || s.EvictedBytes != 100 {
		t.Errorf("stats = %+v", s)
	}
	if u.Capacity() != 300 || u.Used() != 300 {
		t.Errorf("capacity/used = %d/%d", u.Capacity(), u.Used())
	}
	if len(u.Levels()) != 1 {
		t.Error("unified should report one level")
	}
}

func TestUnifiedForcedDeletes(t *testing.T) {
	u := NewUnified(1000, nil, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindEvict {
			t.Error("forced delete fired an evict event")
		}
	}))
	u.Insert(codecache.Fragment{ID: 1, Size: 100, Module: 5})
	u.Insert(codecache.Fragment{ID: 2, Size: 100, Module: 6})
	out := u.DeleteModule(5)
	if len(out) != 1 || out[0].ID != 1 {
		t.Fatalf("DeleteModule = %v", out)
	}
	s := u.Stats()
	if s.ForcedDeletes != 1 || s.ForcedDeleteBytes != 100 {
		t.Errorf("forced delete stats = %+v", s)
	}
}

func TestUnifiedPinning(t *testing.T) {
	u := NewUnified(200, nil, nil)
	u.Insert(codecache.Fragment{ID: 1, Size: 200})
	if !u.SetUndeletable(1, true) {
		t.Fatal("pin failed")
	}
	if err := u.Insert(codecache.Fragment{ID: 2, Size: 100}); err == nil {
		t.Error("insert into fully pinned cache should fail")
	}
	if u.Stats().DropTooBig != 1 {
		t.Error("DropTooBig not counted")
	}
	if u.SetUndeletable(42, true) {
		t.Error("pinning a missing trace should report false")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Layout451045Threshold1(1000)
	if err := good.GraphSpec().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []Config{
		{TotalCapacity: 0, NurseryFrac: 0.5, ProbationFrac: 0.25, PersistentFrac: 0.25},
		{TotalCapacity: 100, NurseryFrac: 0.5, ProbationFrac: 0.5, PersistentFrac: 0.5},
		{TotalCapacity: 100, NurseryFrac: 1.0, ProbationFrac: 0.0, PersistentFrac: 0.0},
	}
	for i, c := range bad {
		if err := c.GraphSpec().Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewGraph(c.GraphSpec(), nil); err == nil {
			t.Errorf("NewGraph accepted bad config %d", i)
		}
	}
}

// TestValidateRefusesNonFiniteFractions: a NaN or infinite tier fraction
// fails Validate, on a one-tier and on a three-tier spec, and the CLI grammar
// refuses the same values.
func TestValidateRefusesNonFiniteFractions(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		one := UnifiedSpec(1000, nil)
		one.Tiers[0].Frac = v
		for i := range 3 {
			three := Layout451045Threshold1(1000).GraphSpec()
			three.Tiers[i].Frac = v
			if err := three.Validate(); err == nil {
				t.Errorf("three-tier spec with tier %d fraction %v accepted", i, v)
			}
		}
		if err := one.Validate(); err == nil {
			t.Errorf("one-tier spec with fraction %v accepted", v)
		}
	}
	for _, s := range []string{"NaN", "NaN-50-50", "50-NaN-50@1", "Inf", "-Inf-50-50"} {
		if _, err := ParseTierSpec(s, 1000); err == nil {
			t.Errorf("ParseTierSpec(%q) accepted", s)
		}
	}
}

func TestLayoutPresets(t *testing.T) {
	for _, cfg := range []Config{
		Layout433Threshold10(999),
		Layout451045Threshold1(999),
		Layout104545Threshold10(999),
	} {
		if err := cfg.GraphSpec().Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
		g, err := NewGraph(cfg.GraphSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.Capacity() != 999 {
			t.Errorf("capacity = %d, want 999 (no bytes lost to rounding)", g.Capacity())
		}
		if !strings.HasPrefix(g.Name(), "generational/") {
			t.Errorf("name = %q", g.Name())
		}
	}
}

// mkGen builds a small generational manager for behavioural tests:
// 300-byte nursery, 300-byte probation, 400-byte persistent.
func mkGen(t *testing.T, threshold uint64, promoteOnAccess bool, o obs.Observer) *Graph {
	t.Helper()
	g, err := NewGraph(Config{
		TotalCapacity:    1000,
		NurseryFrac:      0.3,
		ProbationFrac:    0.3,
		PersistentFrac:   0.4,
		PromoteThreshold: threshold,
		PromoteOnAccess:  promoteOnAccess,
	}.GraphSpec(), o)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerationalNurseryToProbation(t *testing.T) {
	var promotions []string
	g := mkGen(t, 1, false, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindPromote {
			promotions = append(promotions, e.From.String()+">"+e.To.String())
		}
	}))
	// Fill the 300-byte nursery, then overflow it: the FIFO victim must be
	// promoted to probation, not deleted.
	for id := uint64(1); id <= 3; id++ {
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Insert(codecache.Fragment{ID: 4, Size: 100}); err != nil {
		t.Fatal(err)
	}
	if len(promotions) != 1 || promotions[0] != "nursery>probation" {
		t.Fatalf("promotions = %v", promotions)
	}
	if l, ok := g.Where(1); !ok || l != LevelProbation {
		t.Fatalf("trace 1 at %v, %v; want probation", l, ok)
	}
	if !g.Contains(1) || !g.Contains(4) {
		t.Error("traces 1 and 4 should be resident")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g.Stats().PromotedToProbation != 1 {
		t.Errorf("stats = %+v", g.Stats())
	}
}

func TestGenerationalProbationDeath(t *testing.T) {
	var deaths []uint64
	g := mkGen(t, 1, false, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindEvict && e.From == LevelProbation {
			deaths = append(deaths, e.Trace)
		}
	}))
	// Push 7 traces through: nursery holds 3, probation holds 3; the 7th
	// insert forces a probation eviction. No trace was ever accessed in
	// probation, so the victim must die, not promote.
	for id := uint64(1); id <= 7; id++ {
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if len(deaths) != 1 || deaths[0] != 1 {
		t.Fatalf("probation deaths = %v, want [1]", deaths)
	}
	if g.Contains(1) {
		t.Error("trace 1 should be gone")
	}
	if g.arenaOf(LevelPersistent).Len() != 0 {
		t.Error("nothing should have reached the persistent cache")
	}
	if g.Stats().ProbationDeaths != 1 {
		t.Errorf("stats = %+v", g.Stats())
	}
}

func TestGenerationalPromotionViaEviction(t *testing.T) {
	g := mkGen(t, 1, false, nil)
	for id := uint64(1); id <= 4; id++ {
		g.Insert(codecache.Fragment{ID: id, Size: 100})
	}
	// Trace 1 is now in probation. Hit it once (threshold 1), then force
	// probation evictions: it must be promoted at eviction time.
	if !g.Access(1) {
		t.Fatal("probation access failed")
	}
	for id := uint64(5); id <= 10; id++ {
		g.Insert(codecache.Fragment{ID: id, Size: 100})
	}
	if l, ok := g.Where(1); !ok || l != LevelPersistent {
		t.Fatalf("trace 1 at %v,%v; want persistent", l, ok)
	}
	if g.Stats().PromotedToPersist != 1 {
		t.Errorf("stats = %+v", g.Stats())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationalPromoteOnAccess(t *testing.T) {
	g := mkGen(t, 1, true, nil)
	for id := uint64(1); id <= 4; id++ {
		g.Insert(codecache.Fragment{ID: id, Size: 100})
	}
	// Trace 1 is in probation; a single hit must immediately upgrade it.
	if !g.Access(1) {
		t.Fatal("access failed")
	}
	if l, _ := g.Where(1); l != LevelPersistent {
		t.Fatalf("trace 1 at %v, want persistent (promote-on-access)", l)
	}
	// A second access hits it in the persistent cache.
	if !g.Access(1) {
		t.Error("persistent access failed")
	}
	s := g.Stats()
	if s.Hits != 2 || s.Accesses != 2 || s.PromotedToPersist != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGenerationalThreshold10NeedsTenHits(t *testing.T) {
	g := mkGen(t, 10, true, nil)
	for id := uint64(1); id <= 4; id++ {
		g.Insert(codecache.Fragment{ID: id, Size: 100})
	}
	for i := 0; i < 9; i++ {
		g.Access(1)
	}
	if l, _ := g.Where(1); l != LevelProbation {
		t.Fatalf("trace 1 left probation after 9 hits (at %v)", l)
	}
	g.Access(1)
	if l, _ := g.Where(1); l != LevelPersistent {
		t.Fatalf("trace 1 at %v after 10 hits, want persistent", l)
	}
}

func TestGenerationalPersistentEviction(t *testing.T) {
	var persistentDeaths int
	g := mkGen(t, 1, true, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindEvict && e.From == LevelPersistent {
			persistentDeaths++
		}
	}))
	// promoteOne pushes trace id through nursery into probation (by
	// inserting three 100-byte fillers into the 300-byte nursery) and then
	// hits it once, which upgrades it to the persistent cache.
	filler := uint64(1000)
	promoteOne := func(id uint64) {
		t.Helper()
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := g.Insert(codecache.Fragment{ID: filler, Size: 100}); err != nil {
				t.Fatal(err)
			}
			filler++
		}
		if l, ok := g.Where(id); !ok || l != LevelProbation {
			t.Fatalf("trace %d at %v,%v; want probation", id, l, ok)
		}
		if !g.Access(id) {
			t.Fatalf("access %d failed", id)
		}
		if l, _ := g.Where(id); l != LevelPersistent {
			t.Fatalf("trace %d did not reach persistent", id)
		}
	}
	// The 400-byte persistent cache holds four 100-byte traces; the fifth
	// promotion must evict a persistent resident.
	for id := uint64(1); id <= 5; id++ {
		promoteOne(id)
	}
	if g.arenaOf(LevelPersistent).Len() != 4 {
		t.Fatalf("persistent holds %d traces, want 4", g.arenaOf(LevelPersistent).Len())
	}
	if persistentDeaths != 1 {
		t.Fatalf("persistent deaths = %d, want 1", persistentDeaths)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationalDeleteModuleSpansLevels(t *testing.T) {
	g := mkGen(t, 1, true, nil)
	for id := uint64(1); id <= 4; id++ {
		g.Insert(codecache.Fragment{ID: id, Size: 100, Module: 7})
	}
	g.Access(1) // trace 1 -> persistent
	out := g.DeleteModule(7)
	if len(out) != 4 {
		t.Fatalf("DeleteModule removed %d, want 4", len(out))
	}
	if g.Used() != 0 {
		t.Errorf("used = %d after module delete", g.Used())
	}
	if g.Stats().ForcedDeletes != 4 {
		t.Errorf("stats = %+v", g.Stats())
	}
}

func TestGenerationalSetUndeletable(t *testing.T) {
	g := mkGen(t, 1, true, nil)
	for id := uint64(1); id <= 4; id++ {
		g.Insert(codecache.Fragment{ID: id, Size: 100})
	}
	if !g.SetUndeletable(1, true) { // in probation
		t.Error("pin in probation failed")
	}
	if !g.SetUndeletable(2, true) { // in nursery
		t.Error("pin in nursery failed")
	}
	if g.SetUndeletable(99, true) {
		t.Error("pin of missing trace should fail")
	}
	// Pinned probation trace must not be promoted on access.
	g.Access(1)
	if l, _ := g.Where(1); l != LevelProbation {
		t.Errorf("pinned trace moved to %v", l)
	}
}

func TestGenerationalTooBigTrace(t *testing.T) {
	g := mkGen(t, 1, true, nil)
	if err := g.Insert(codecache.Fragment{ID: 1, Size: 500}); err == nil {
		t.Error("trace larger than nursery should be rejected")
	}
	if g.Stats().DropTooBig != 1 {
		t.Errorf("stats = %+v", g.Stats())
	}
}

func TestGenerationalOversizedNurseryVictimDies(t *testing.T) {
	// A 250-byte trace fits the 300-byte nursery but not probation once
	// probation is crowded by pinned traces... simpler: make probation too
	// small for the victim by using a custom config.
	g, err := NewGraph(Config{
		TotalCapacity:    1000,
		NurseryFrac:      0.5, // 500
		ProbationFrac:    0.1, // 100
		PersistentFrac:   0.4, // 400
		PromoteThreshold: 1,
	}.GraphSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(codecache.Fragment{ID: 1, Size: 400})
	g.Insert(codecache.Fragment{ID: 2, Size: 400}) // evicts 1 -> probation(100): too big -> dies
	if g.Contains(1) {
		t.Error("oversized victim should have died")
	}
	if g.Stats().Evicted != 1 {
		t.Errorf("stats = %+v", g.Stats())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationalLocalPolicyOverride(t *testing.T) {
	g, err := NewGraph(Config{
		TotalCapacity:    900,
		NurseryFrac:      1.0 / 3,
		ProbationFrac:    1.0 / 3,
		PersistentFrac:   1.0 / 3,
		PromoteThreshold: 1,
		Local: func(l Level) policy.Local {
			if l == LevelNursery {
				return policy.NewLRU()
			}
			return nil // default
		},
	}.GraphSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so LRU (not FIFO) chooses 2 as the nursery victim.
	g.Access(1)
	g.Insert(codecache.Fragment{ID: 4, Size: 100})
	if l, ok := g.Where(2); !ok || l != LevelProbation {
		t.Errorf("trace 2 at %v,%v; want probation under LRU nursery", l, ok)
	}
	if l, _ := g.Where(1); l != LevelNursery {
		t.Errorf("trace 1 should still be in the nursery")
	}
}

// TestGenerationalRandomized drives the full Figure 8 machinery with a
// random mix of inserts, accesses, unmaps, and pins, checking the
// exactly-one-cache invariant and arena soundness after every step.
func TestGenerationalRandomized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		liveBytes := uint64(0)
		g, err := NewGraph(Config{
			TotalCapacity:    8192,
			NurseryFrac:      0.45,
			ProbationFrac:    0.10,
			PersistentFrac:   0.45,
			PromoteThreshold: uint64(1 + r.Intn(3)),
			PromoteOnAccess:  seed%2 == 0,
		}.GraphSpec(), obs.Func(func(e obs.Event) {
			if e.Kind == obs.KindEvict {
				liveBytes -= e.Size
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		next := uint64(1)
		for op := 0; op < 4000; op++ {
			switch k := r.Intn(10); {
			case k < 4:
				f := codecache.Fragment{ID: next, Size: uint64(32 + r.Intn(500)), Module: uint16(r.Intn(4))}
				next++
				if err := g.Insert(f); err == nil {
					ids = append(ids, f.ID)
					liveBytes += f.Size
				}
			case k < 9:
				if len(ids) > 0 {
					g.Access(ids[r.Intn(len(ids))])
				}
			default:
				m := uint16(r.Intn(4))
				for _, f := range g.DeleteModule(m) {
					liveBytes -= f.Size
				}
			}
			if op%50 == 0 {
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if g.Used() != liveBytes {
					t.Fatalf("seed %d op %d: used %d, model %d", seed, op, g.Used(), liveBytes)
				}
			}
		}
	}
}

// TestQuickConfigValidate: random fraction triples are accepted exactly when
// they are all positive and sum to 1 (within tolerance).
func TestQuickConfigValidate(t *testing.T) {
	f := func(a, b uint16) bool {
		n := float64(a%1000) / 1000
		p := float64(b%1000) / 1000
		s := 1 - n - p
		cfg := Config{TotalCapacity: 1000, NurseryFrac: n, ProbationFrac: p, PersistentFrac: s, PromoteThreshold: 1}
		err := cfg.GraphSpec().Validate()
		legal := n > 0 && p > 0 && s > 0
		return (err == nil) == legal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestObserverFanOutProperty drives a random workload through both manager
// shapes with an EventCounter on the bus and checks that every logical
// event fires exactly once: observer tallies must equal the manager's own
// Stats counters, and a second observer fanned in through obs.Bus must see
// the identical stream.
func TestObserverFanOutProperty(t *testing.T) {
	for _, seed := range []int64{7, 11, 13} {
		for _, shape := range []string{"unified", "generational"} {
			r := rand.New(rand.NewSource(seed))
			ec := stats.NewEventCounter()
			ec2 := stats.NewEventCounter()
			bus := obs.NewBus(ec, ec2)

			var mgr Manager
			if shape == "unified" {
				mgr = NewUnified(4096, nil, bus)
			} else {
				g, err := NewGraph(Config{
					TotalCapacity:    4096,
					NurseryFrac:      0.45,
					ProbationFrac:    0.10,
					PersistentFrac:   0.45,
					PromoteThreshold: uint64(1 + r.Intn(2)),
					PromoteOnAccess:  seed%2 == 0,
				}.GraphSpec(), bus)
				if err != nil {
					t.Fatal(err)
				}
				mgr = g
			}

			var ids []uint64
			next := uint64(1)
			for op := 0; op < 3000; op++ {
				switch k := r.Intn(10); {
				case k < 4:
					f := codecache.Fragment{ID: next, Size: uint64(32 + r.Intn(300)), Module: uint16(r.Intn(4))}
					next++
					if mgr.Insert(f) == nil {
						ids = append(ids, f.ID)
					}
				case k < 9:
					if len(ids) > 0 {
						mgr.Access(ids[r.Intn(len(ids))])
					}
				default:
					mgr.DeleteModule(uint16(r.Intn(4)))
				}
			}

			s := mgr.Stats()
			name := shape
			check := func(label string, got, want uint64) {
				t.Helper()
				if got != want {
					t.Errorf("seed %d %s: %s = %d, stats say %d", seed, name, label, got, want)
				}
			}
			check("insert events", ec.Count(obs.KindInsert), s.Inserts)
			check("evict events", ec.Count(obs.KindEvict), s.Evicted)
			check("evict bytes", ec.Bytes(obs.KindEvict), s.EvictedBytes)
			check("promote events", ec.Count(obs.KindPromote), s.PromotedToProbation+s.PromotedToPersist)
			check("unmap events", ec.Count(obs.KindUnmap), s.ForcedDeletes)
			check("unmap bytes", ec.Bytes(obs.KindUnmap), s.ForcedDeleteBytes)
			if shape == "unified" {
				check("promote events (unified never promotes)", ec.Count(obs.KindPromote), 0)
			}
			for k := obs.Kind(1); int(k) < obs.NumKinds; k++ {
				if ec.Count(k) != ec2.Count(k) || ec.Bytes(k) != ec2.Bytes(k) {
					t.Errorf("seed %d %s: bus observers disagree on %s: %d/%d vs %d/%d",
						seed, name, k, ec.Count(k), ec.Bytes(k), ec2.Count(k), ec2.Bytes(k))
				}
			}
		}
	}
}
