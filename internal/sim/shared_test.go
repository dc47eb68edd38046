package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/tracelog"
)

// sharedSpec: equal thirds so every tier holds a few 100-byte traces.
func sharedSpec() core.GraphSpec {
	return core.GraphSpec{TotalCapacity: 1000, Tiers: []core.TierSpec{
		{Frac: 1.0 / 3},
		{Frac: 1.0 / 3, Threshold: 1, PromoteOnAccess: true},
		{Frac: 1.0 / 3},
	}}
}

// mkSharedLog: six traces with distinct code identities; the first three
// are pushed through the nursery into probation by the later creates, then
// promoted to the persistent tier by their first access. Every round then
// hits all six.
func mkSharedLog(rounds int, unmapModule bool) []tracelog.Event {
	var evs []tracelog.Event
	tm := uint64(0)
	emit := func(e tracelog.Event) { tm++; e.Time = tm; evs = append(evs, e) }
	for i := uint64(1); i <= 6; i++ {
		emit(tracelog.Event{Kind: tracelog.KindCreate, Trace: i, Size: 100, Module: uint16(i % 2), Head: 0x1000 * i})
	}
	for r := 0; r < rounds; r++ {
		for i := uint64(1); i <= 6; i++ {
			emit(tracelog.Event{Kind: tracelog.KindAccess, Trace: i})
		}
	}
	if unmapModule {
		emit(tracelog.Event{Kind: tracelog.KindUnmap, Module: 1})
	}
	emit(tracelog.Event{Kind: tracelog.KindEnd})
	return evs
}

func TestReplaySharedAdoptionSavesGenerations(t *testing.T) {
	evs := mkSharedLog(20, false)
	const procs = 3
	sh, err := ReplayShared("b", evs, sharedSpec(), procs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Procs != procs || sh.Benchmark != "b" {
		t.Errorf("result identity = %+v", sh)
	}
	if sh.Adoptions == 0 {
		t.Fatal("no adoptions: later processes should attach to promoted traces")
	}
	// Aggregate generations must beat N isolated replays of the same log.
	iso, err := ReplayGenerational("b", evs, sharedSpec(), costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	isoGens := procs * (iso.ColdCreates + iso.Regenerations)
	if sh.Generations() >= isoGens {
		t.Errorf("shared generations %d not below isolated aggregate %d (adoptions %d)",
			sh.Generations(), isoGens, sh.Adoptions)
	}
	if sh.Generations()+sh.Adoptions < uint64(procs)*6 {
		t.Errorf("generations %d + adoptions %d do not cover %d per-process creates",
			sh.Generations(), sh.Adoptions, procs*6)
	}
	if st := sh.Shared; st.Promotions == 0 || st.Adoptions != sh.Adoptions {
		t.Errorf("shared tier stats = %+v, replay adoptions = %d", st, sh.Adoptions)
	}
}

func TestReplaySharedSingleProcMatchesGenerational(t *testing.T) {
	evs := mkSharedLog(12, true)
	sh, err := ReplayShared("b", evs, sharedSpec(), 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := ReplayGenerational("b", evs, sharedSpec(), costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Adoptions != 0 {
		t.Errorf("single-process replay adopted %d traces", sh.Adoptions)
	}
	if sh.Accesses != iso.Accesses || sh.Hits != iso.Hits || sh.Misses != iso.Misses ||
		sh.ColdCreates != iso.ColdCreates || sh.Regenerations != iso.Regenerations ||
		sh.ForcedDeletes != iso.ForcedDeletes {
		t.Errorf("single-process shared replay diverges:\nshared: %+v\nplain:  %+v", sh, iso)
	}
	if sh.Overhead.Total() != iso.Overhead.Total() {
		t.Errorf("overhead %v != %v", sh.Overhead.Total(), iso.Overhead.Total())
	}
}

// TestReplaySharedAdoptLog replays a log carrying adopt events, as every
// process's log from a multi-process run does: traces 5 and 6 were adopted
// from a peer rather than generated.
func TestReplaySharedAdoptLog(t *testing.T) {
	evs := mkSharedLog(12, true)
	for i := range evs {
		if evs[i].Kind == tracelog.KindCreate && evs[i].Trace >= 5 {
			evs[i].Kind = tracelog.KindAdopt
		}
	}
	one, err := ReplayShared("b", evs, sharedSpec(), 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ReplayGenerational("b", evs, sharedSpec(), costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Adoptions != 2 {
		t.Fatalf("plain replay counted %d adoptions, want 2", plain.Adoptions)
	}
	if one.Accesses != plain.Accesses || one.Hits != plain.Hits || one.Misses != plain.Misses ||
		one.ColdCreates != plain.ColdCreates || one.Regenerations != plain.Regenerations ||
		one.Adoptions != plain.Adoptions || one.ForcedDeletes != plain.ForcedDeletes {
		t.Errorf("single-process shared replay diverges:\nshared: %+v\nplain:  %+v", one, plain)
	}
	if one.Overhead.Total() != plain.Overhead.Total() {
		t.Errorf("overhead %v != %v", one.Overhead.Total(), plain.Overhead.Total())
	}

	const procs = 3
	sh, err := ReplayShared("b", evs, sharedSpec(), procs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Generations()+sh.Adoptions < uint64(procs)*6 {
		t.Errorf("generations %d + adoptions %d do not cover %d per-process creates and adopts",
			sh.Generations(), sh.Adoptions, procs*6)
	}
}

func TestReplaySharedDeterminism(t *testing.T) {
	evs := mkSharedLog(20, true)
	run := func() SharedResult {
		r, err := ReplayShared("b", evs, sharedSpec(), 4, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Accesses != b.Accesses || a.Hits != b.Hits || a.Misses != b.Misses ||
		a.ColdCreates != b.ColdCreates || a.Regenerations != b.Regenerations ||
		a.Adoptions != b.Adoptions || a.ForcedDeletes != b.ForcedDeletes ||
		a.Shared != b.Shared || a.Overhead.Total() != b.Overhead.Total() {
		t.Fatalf("nondeterministic shared replay:\n%+v\n%+v", a, b)
	}
}

func TestReplaySharedUnmap(t *testing.T) {
	evs := mkSharedLog(10, true)
	sh, err := ReplayShared("b", evs, sharedSpec(), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Module 1 holds traces 1, 3, 5; every process unmaps its copies (or
	// its references to shared ones).
	if sh.ForcedDeletes == 0 && sh.Shared.Drained == 0 {
		t.Errorf("unmap removed nothing: %+v", sh)
	}
}

func TestReplaySharedErrors(t *testing.T) {
	evs := mkSharedLog(2, false)
	if _, err := ReplayShared("b", evs, sharedSpec(), 0, 0, nil); err == nil {
		t.Error("procs=0 accepted")
	}
	bad := sharedSpec()
	bad.Tiers[0].Frac = 0
	if _, err := ReplayShared("b", evs, bad, 2, 0, nil); err == nil {
		t.Error("invalid config accepted")
	}
	dup := []tracelog.Event{
		{Kind: tracelog.KindCreate, Time: 1, Trace: 1, Size: 100, Head: 0x10},
		{Kind: tracelog.KindCreate, Time: 2, Trace: 1, Size: 100, Head: 0x10},
	}
	if _, err := ReplayShared("b", dup, sharedSpec(), 2, 0, nil); err == nil {
		t.Error("duplicate create accepted")
	}
	dup[1].Kind = tracelog.KindAdopt
	if _, err := ReplayShared("b", dup, sharedSpec(), 2, 0, nil); err == nil {
		t.Error("adopt of a created trace accepted")
	}
}
