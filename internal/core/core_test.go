package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	ec := stats.NewEventCounter()
	u := NewUnified(300, nil, obs.NewBus(ec, obs.Func(func(e obs.Event) {
		if e.Kind != obs.KindEvict {
			return
		}
		if e.From != LevelUnified {
			t.Errorf("eviction from %s", e.From)
		}
		evicted = append(evicted, e.Trace)
	})))
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
	if ec.Count(obs.KindInsert) != 4 || ec.Bytes(obs.KindEvict) != 100 {
		t.Errorf("%d insert events and %d evicted bytes, want 4 and 100", ec.Count(obs.KindInsert), ec.Bytes(obs.KindEvict))
	}
	if u.Capacity() != 300 || u.Used() != 300 {
		t.Errorf("capacity/used = %d/%d", u.Capacity(), u.Used())
	}
}

func TestUnifiedForcedDeletes(t *testing.T) {
	ec := stats.NewEventCounter()
	u := NewUnified(1000, nil, obs.NewBus(ec, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindEvict {
			t.Error("forced delete fired an evict event")
		}
	})))
	u.Insert(codecache.Fragment{ID: 1, Size: 100, Module: 5})
	u.Insert(codecache.Fragment{ID: 2, Size: 100, Module: 6})
	out := u.DeleteModule(5)
	if len(out) != 1 || out[0].ID != 1 {
		t.Fatalf("DeleteModule = %v", out)
	}
	if ec.Count(obs.KindUnmap) != 1 || ec.Bytes(obs.KindUnmap) != 100 {
		t.Errorf("%d unmap events of %d bytes, want 1 of 100", ec.Count(obs.KindUnmap), ec.Bytes(obs.KindUnmap))
	}
}

func TestUnifiedPinning(t *testing.T) {
	ec := stats.NewEventCounter()
	u := NewUnified(200, nil, ec)
	u.Insert(codecache.Fragment{ID: 1, Size: 200})
	if !u.SetUndeletable(1, true) {
		t.Fatal("pin failed")
	}
	if err := u.Insert(codecache.Fragment{ID: 2, Size: 100}); err == nil {
		t.Error("insert into fully pinned cache should fail")
	}
	if n := ec.Count(obs.KindInsert); n != 1 {
		t.Errorf("%d insert events, want 1: a refused insert publishes nothing", n)
	}
	if u.SetUndeletable(42, true) {
		t.Error("pinning a missing trace should report false")
	}
}

// threeTier is ThreeTier with an explicit promote-on-access flag, for tests
// that need a value other than ThreeTier's (threshold == 1).
func threeTier(total uint64, nursery, probation, persistent float64, threshold uint64, promoteOnAccess bool) GraphSpec {
	s := ThreeTier(total, nursery, probation, persistent, threshold)
	s.Tiers[1].PromoteOnAccess = promoteOnAccess
	return s
}

func TestConfigValidate(t *testing.T) {
	good := Layout451045Threshold1(1000)
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	bad := []GraphSpec{
		threeTier(0, 0.5, 0.25, 0.25, 0, false),
		threeTier(100, 0.5, 0.5, 0.5, 0, false),
		threeTier(100, 1.0, 0.0, 0.0, 0, false),
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
		if _, err := NewGraph(spec, nil); err == nil {
			t.Errorf("NewGraph accepted bad spec %d", i)
		}
	}
}

// TestValidateRefusesNonFiniteFractions: a NaN or infinite tier fraction
// fails Validate, on a one-tier and on a three-tier spec, and the CLI grammar
// refuses the same values.
func TestValidateRefusesNonFiniteFractions(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		one := UnifiedSpec(1000)
		one.Tiers[0].Frac = v
		for i := range 3 {
			three := Layout451045Threshold1(1000)
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
	for _, spec := range []GraphSpec{
		Layout433Threshold10(999),
		Layout451045Threshold1(999),
		Layout104545Threshold10(999),
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
		g, err := NewGraph(spec, nil)
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
	g, err := NewGraph(threeTier(1000, 0.3, 0.3, 0.4, threshold, promoteOnAccess), o)
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
}

func TestGenerationalPromotionViaEviction(t *testing.T) {
	ec := stats.NewEventCounter()
	g := mkGen(t, 1, false, ec)
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
	if n := ec.CountAtLevel(obs.KindPromote, LevelPersistent); n != 1 {
		t.Errorf("%d promotions into the persistent cache, want 1", n)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationalPromoteOnAccess(t *testing.T) {
	ec := stats.NewEventCounter()
	g := mkGen(t, 1, true, ec)
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
	if n := ec.CountAtLevel(obs.KindPromote, LevelPersistent); n != 1 {
		t.Errorf("%d promotions into the persistent cache, want 1", n)
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
	ec := stats.NewEventCounter()
	g := mkGen(t, 1, true, ec)
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
	if ec.CountAtLevel(obs.KindUnmap, LevelNursery) != 3 || ec.CountAtLevel(obs.KindUnmap, LevelPersistent) != 1 {
		t.Errorf("unmap events: %d from the nursery, %d from the persistent cache; want 3 and 1",
			ec.CountAtLevel(obs.KindUnmap, LevelNursery), ec.CountAtLevel(obs.KindUnmap, LevelPersistent))
	}
}

// TestGraphPublishesUnmapsAndResizes: the graph publishes the unmaps and
// resizes its arenas carry out. DeleteModule publishes one unmap per victim,
// tier by tier in address order, carrying the tier's level and the proc
// given to SetProcID. A controller shift publishes the donor's resize, then
// the recipient's, each with the tier's new capacity; a shift refused by a
// pinned fragment publishes nothing.
func TestGraphPublishesUnmapsAndResizes(t *testing.T) {
	// A 450-byte nursery, 100 bytes of probation and a 450-byte persistent
	// tier, under a controller whose epochs never come: the test shifts.
	spec := Layout451045Threshold1(1000)
	spec.Adaptive = &AdaptiveConfig{Epoch: 1 << 30}
	var got []obs.Event
	g, err := NewGraph(spec, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindUnmap || e.Kind == obs.KindResize {
			got = append(got, e)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	g.SetProcID(3)
	insert := func(id uint64, module uint16) {
		t.Helper()
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100, Module: module}); err != nil {
			t.Fatal(err)
		}
	}
	// Odd IDs are module 7's. Trace 5 wraps and pushes 1 into probation, an
	// access promotes 1 into the persistent tier, and 6 takes 2's place,
	// pushing 2 into probation.
	for id := uint64(1); id <= 5; id++ {
		insert(id, uint16(7+(id+1)%2))
	}
	g.Access(1)
	insert(6, 7)
	// Module 7 now holds 5, 6 and 3 at nursery offsets 0, 100 and 200, and 1
	// in the persistent tier.
	victims := g.DeleteModule(7)
	want := []struct {
		id  uint64
		lvl Level
	}{{5, LevelNursery}, {6, LevelNursery}, {3, LevelNursery}, {1, LevelPersistent}}
	if len(got) != len(want) || len(victims) != len(want) {
		t.Fatalf("DeleteModule returned %d victims and published %d unmaps, want %d", len(victims), len(got), len(want))
	}
	for i, w := range want {
		e := got[i]
		if e.Kind != obs.KindUnmap || e.Trace != w.id || e.From != w.lvl || e.Proc != 3 || e.Module != 7 || e.Size != 100 {
			t.Errorf("unmap %d = %+v, want trace %d from %s by proc 3", i, e, w.id, w.lvl)
		}
		if victims[i].ID != w.id {
			t.Errorf("victim %d is trace %d, want %d", i, victims[i].ID, w.id)
		}
	}

	got = got[:0]
	if !g.ctl.shift(0, 2) {
		t.Fatal("shift from the nursery to the persistent tier refused")
	}
	if len(got) != 2 {
		t.Fatalf("a shift published %d events, want 2 resizes", len(got))
	}
	for i, w := range []struct {
		lvl Level
		cap uint64
	}{{LevelNursery, 410}, {LevelPersistent, 490}} {
		if e := got[i]; e.Kind != obs.KindResize || e.From != w.lvl || e.Size != w.cap || e.Proc != 3 {
			t.Errorf("resize %d = %+v, want %s to %d bytes by proc 3", i, e, w.lvl, w.cap)
		}
	}

	// Trace 4 sits at nursery offsets 300-400, inside the next shrink's cut.
	got = got[:0]
	if !g.SetUndeletable(4, true) {
		t.Fatal("trace 4 is not resident")
	}
	if g.ctl.shift(0, 2) {
		t.Fatal("shift over a pinned fragment applied")
	}
	if len(got) != 0 {
		t.Errorf("a refused shift published %+v", got)
	}
	if caps := g.TierCapacities(); !slices.Equal(caps, []uint64{410, 100, 490}) {
		t.Errorf("capacities after the refused shift = %v, want [410 100 490]", caps)
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
	ec := stats.NewEventCounter()
	g := mkGen(t, 1, true, ec)
	if err := g.Insert(codecache.Fragment{ID: 1, Size: 500}); err == nil {
		t.Error("trace larger than nursery should be rejected")
	}
	if n := ec.Count(obs.KindInsert); n != 0 {
		t.Errorf("a refused insert published %d insert events", n)
	}
}

func TestGenerationalOversizedNurseryVictimDies(t *testing.T) {
	// A nursery victim too big for the probation cache dies: a 500-byte
	// nursery, a 100-byte probation cache and a 400-byte persistent cache.
	ec := stats.NewEventCounter()
	g, err := NewGraph(threeTier(1000, 0.5, 0.1, 0.4, 1, false), ec)
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(codecache.Fragment{ID: 1, Size: 400})
	g.Insert(codecache.Fragment{ID: 2, Size: 400}) // evicts 1 -> probation(100): too big -> dies
	if g.Contains(1) {
		t.Error("oversized victim should have died")
	}
	if ec.Count(obs.KindEvict) != 1 || ec.CountAtLevel(obs.KindEvict, LevelNursery) != 1 {
		t.Errorf("%d evict events, %d from the nursery; want one, from the nursery",
			ec.Count(obs.KindEvict), ec.CountAtLevel(obs.KindEvict, LevelNursery))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationalLocalPolicyOverride(t *testing.T) {
	spec := threeTier(900, 1.0/3, 1.0/3, 1.0/3, 1, false)
	spec.Tiers[0].Policy = "lru"
	g, err := NewGraph(spec, nil)
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

// TestEveryPolicyNamesInTierString: every registered policy can be named
// inside a tier string, by its name when that has no dash and otherwise by
// its first dash-free alias, and the tier runs that policy.
func TestEveryPolicyNamesInTierString(t *testing.T) {
	for _, in := range policy.List() {
		name := in.Name
		if strings.Contains(name, "-") {
			name = ""
			for _, a := range in.Aliases {
				if !strings.Contains(a, "-") {
					name = a
					break
				}
			}
		}
		if name == "" {
			t.Errorf("policy %q has a dash and no dash-free alias, so no tier string can name it", in.Name)
			continue
		}
		spec, err := ParseTierSpec("50@"+name+"-50", 1000)
		if err != nil {
			t.Errorf("policy %q by %q: %v", in.Name, name, err)
			continue
		}
		g, err := NewGraph(spec, nil)
		if err != nil {
			t.Errorf("policy %q by %q: %v", in.Name, name, err)
			continue
		}
		if got := g.LivePolicies()[0]; got != in.Name {
			t.Errorf("tier string naming %q runs %q, want %q", name, got, in.Name)
		}
	}
}

// TestParseTierSpecNamesDashedPolicy: a dashed policy name in a tier string
// is refused with the policy's name and its dash-free alias, not with the
// piece of the name that the '-' split left where a percentage belongs.
func TestParseTierSpecNamesDashedPolicy(t *testing.T) {
	for _, c := range []struct{ spec, policy, alias string }{
		{"100@pseudo-circular", "pseudo-circular", "circ"},
		{"50@lru-50@flush-when-full", "flush-when-full", "flush"},
		{"50@preemptive-flush-50", "preemptive-flush", "preflush"},
		{"100@circular-first-fit", "circular-first-fit", "cff"},
	} {
		_, err := ParseTierSpec(c.spec, 1000)
		if err == nil {
			t.Errorf("%q accepted", c.spec)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, `"`+c.policy+`"`) || !strings.Contains(msg, `"`+c.alias+`"`) || strings.Contains(msg, "percentage") {
			t.Errorf("%q refused with %q, want policy %q and alias %q named", c.spec, msg, c.policy, c.alias)
		}
	}
}

// TestParseTierSpecCanonicalPolicies: a tier string stores every policy by
// its canonical spec, so a cache spelled with an alias is the same spec, and
// carries the same name, as the stock one.
func TestParseTierSpecCanonicalPolicies(t *testing.T) {
	for _, c := range []struct {
		tiers string
		want  GraphSpec
	}{
		{"100@circ", UnifiedSpec(1000)},
		{"45@circ-10-45@1", Layout451045Threshold1(1000)},
		{"50@auto:circ-50@flush", GraphSpec{TotalCapacity: 1000, Tiers: []TierSpec{
			{Frac: 0.5, Policy: "auto:pseudo-circular"}, {Frac: 0.5, Policy: "flush-when-full"},
		}}},
	} {
		spec, err := ParseTierSpec(c.tiers, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, c.want) {
			t.Errorf("ParseTierSpec(%q) = %+v, want %+v", c.tiers, spec, c.want)
		}
	}
	spec, _ := ParseTierSpec("100@circ", 1000)
	g, err := NewGraph(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "unified/pseudo-circular" {
		t.Errorf("100@circ builds %q, want unified/pseudo-circular", g.Name())
	}
}

// TestGraphNameWritesEveryGate: a chain's name carries each gate as the tier
// string spells it, so chains that differ only in an inner gate get
// different names, while equal gates still print one value and the stock
// shapes keep their names.
func TestGraphNameWritesEveryGate(t *testing.T) {
	for tiers, want := range map[string]string{
		"30-10-20-40@1,2":      "generational/30-10-20-40@1,2",
		"30-10-20-40@2":        "generational/30-10-20-40@2",
		"30-10-20-40@2,2":      "generational/30-10-20-40@2",
		"20-10-10-10-50@1,2":   "generational/20-10-10-10-50@1,2",
		"20-10-10-10-50@3,1,3": "generational/20-10-10-10-50@3,1,3",
		"45-10-45@1":           "generational/45-10-45@1",
		"45-10-45":             "generational/45-10-45@0",
		"50@lru-50":            "generational/50@lru-50@0",
	} {
		spec, err := ParseTierSpec(tiers, 10000)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGraph(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != want {
			t.Errorf("-tiers %s builds %q, want %q", tiers, g.Name(), want)
		}
	}
}

// TestGenerationalRandomized drives the full Figure 8 machinery with a
// random mix of inserts, accesses, unmaps, and pins, checking the
// exactly-one-cache invariant and arena soundness after every step.
func TestGenerationalRandomized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		liveBytes := uint64(0)
		g, err := NewGraph(threeTier(8192, 0.45, 0.10, 0.45, uint64(1+r.Intn(3)), seed%2 == 0), obs.Func(func(e obs.Event) {
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
		err := threeTier(1000, n, p, s, 1, false).Validate()
		legal := n > 0 && p > 0 && s > 0
		return (err == nil) == legal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// residency keeps, per cache level, the traces and bytes a graph's event
// stream says are resident: inserts and promotions land in a level, and
// promotions, evictions and unmaps leave one.
type residency struct {
	n, bytes map[Level]int64
}

func (r *residency) move(l Level, n int64, size uint64) {
	r.n[l] += n
	r.bytes[l] += n * int64(size)
}

func (r *residency) Observe(e obs.Event) {
	switch e.Kind {
	case obs.KindInsert:
		r.move(e.To, 1, e.Size)
	case obs.KindPromote:
		r.move(e.From, -1, e.Size)
		r.move(e.To, 1, e.Size)
	case obs.KindEvict, obs.KindUnmap:
		r.move(e.From, -1, e.Size)
	}
}

// TestObserverFanOutProperty drives random inserts (some warm, into the
// final tier), accesses that regenerate on a miss, pins and module unmaps
// through five graph shapes and checks after every operation that each
// logical event fires exactly once, against the arenas themselves: for every
// private tier, its insert and promote-in events minus its promote-out,
// evict and unmap events equal the arena's resident count, and the same sums
// in bytes equal its used bytes. A second observer fanned in through obs.Bus
// must see the identical stream.
func TestObserverFanOutProperty(t *testing.T) {
	shapes := []struct {
		tiers    string
		adaptive bool
	}{
		{"100", false},
		{"45-10-45@1", false},
		{"30-10-20-40@1,2", false},
		{"45-10-45@1", true},
		{"40@auto-20-40@2", false},
	}
	for _, shape := range shapes {
		for _, seed := range []int64{1, 2, 3} {
			name := fmt.Sprintf("%s adaptive=%v seed %d", shape.tiers, shape.adaptive, seed)
			spec, err := ParseTierSpec(shape.tiers, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if shape.adaptive {
				spec.Adaptive = &AdaptiveConfig{Epoch: 64}
			}
			spec.Selector = &SelectorConfig{Epoch: 64}
			res := &residency{n: map[Level]int64{}, bytes: map[Level]int64{}}
			var first, second []obs.Event
			record := func(dst *[]obs.Event) obs.Observer {
				return obs.Func(func(e obs.Event) { *dst = append(*dst, e) })
			}
			g, err := NewGraph(spec, obs.NewBus(res, record(&first), record(&second)))
			if err != nil {
				t.Fatal(err)
			}

			r := rand.New(rand.NewSource(seed))
			var frags []codecache.Fragment
			for op := 0; op < 5000; op++ {
				switch k := r.Intn(20); {
				case k < 6:
					f := codecache.Fragment{ID: uint64(len(frags) + 1), Size: uint64(32 + r.Intn(300)), Module: uint16(r.Intn(4))}
					frags = append(frags, f)
					if k == 0 {
						g.InsertPersistent(f) // a warm start's insert into the final tier
					} else {
						g.Insert(f)
					}
				case k < 17:
					if len(frags) > 0 {
						if f := frags[r.Intn(len(frags))]; !g.Access(f.ID) {
							g.Insert(f)
						}
					}
				case k < 19:
					if len(frags) > 0 {
						g.SetUndeletable(frags[r.Intn(len(frags))].ID, r.Intn(2) == 0)
					}
				default:
					g.DeleteModule(uint16(r.Intn(4)))
				}
				for _, tr := range g.tiers {
					if n, want := res.n[tr.level], int64(tr.arena.Len()); n != want {
						t.Fatalf("%s op %d: %s events leave %d traces, arena holds %d", name, op, tr.level, n, want)
					}
					if b, want := res.bytes[tr.level], int64(tr.arena.Used()); b != want {
						t.Fatalf("%s op %d: %s events leave %d bytes, arena holds %d", name, op, tr.level, b, want)
					}
				}
			}
			if st, _ := g.AdaptiveStats(); shape.adaptive && st.Resizes == 0 {
				t.Errorf("%s: the controller never resized", name)
			}
			if !slices.Equal(first, second) {
				t.Errorf("%s: bus observers saw different streams (%d vs %d events)", name, len(first), len(second))
			}
		}
	}
}
