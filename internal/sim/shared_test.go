package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/tracelog"
)

// sharedCfg: equal thirds so every tier holds a few 100-byte traces.
func sharedCfg() core.Config {
	return core.Config{
		TotalCapacity:    1000,
		NurseryFrac:      1.0 / 3,
		ProbationFrac:    1.0 / 3,
		PersistentFrac:   1.0 / 3,
		PromoteThreshold: 1,
		PromoteOnAccess:  true,
	}
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
	sh, err := ReplayShared("b", evs, sharedCfg().GraphSpec(), costmodel.DefaultModel, procs, 0, nil)
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
	iso, err := ReplayGenerational("b", evs, sharedCfg(), costmodel.DefaultModel)
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
	sh, err := ReplayShared("b", evs, sharedCfg().GraphSpec(), costmodel.DefaultModel, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := ReplayGenerational("b", evs, sharedCfg(), costmodel.DefaultModel)
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

func TestReplaySharedDeterminism(t *testing.T) {
	evs := mkSharedLog(20, true)
	run := func() SharedResult {
		r, err := ReplayShared("b", evs, sharedCfg().GraphSpec(), costmodel.DefaultModel, 4, 7, nil)
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
	sh, err := ReplayShared("b", evs, sharedCfg().GraphSpec(), costmodel.DefaultModel, 2, 0, nil)
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
	if _, err := ReplayShared("b", evs, sharedCfg().GraphSpec(), costmodel.DefaultModel, 0, 0, nil); err == nil {
		t.Error("procs=0 accepted")
	}
	bad := sharedCfg()
	bad.NurseryFrac = 0
	if _, err := ReplayShared("b", evs, bad.GraphSpec(), costmodel.DefaultModel, 2, 0, nil); err == nil {
		t.Error("invalid config accepted")
	}
	dup := []tracelog.Event{
		{Kind: tracelog.KindCreate, Time: 1, Trace: 1, Size: 100, Head: 0x10},
		{Kind: tracelog.KindCreate, Time: 2, Trace: 1, Size: 100, Head: 0x10},
	}
	if _, err := ReplayShared("b", dup, sharedCfg().GraphSpec(), costmodel.DefaultModel, 2, 0, nil); err == nil {
		t.Error("duplicate create accepted")
	}
}
