package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/tracelog"
)

// mkLog builds a simple log: nTraces traces created, then each accessed in
// round-robin for rounds rounds.
func mkLog(nTraces int, size uint32, rounds int) []tracelog.Event {
	var evs []tracelog.Event
	t := uint64(0)
	for i := 0; i < nTraces; i++ {
		t++
		evs = append(evs, tracelog.Event{Kind: tracelog.KindCreate, Time: t, Trace: uint64(i + 1), Size: size})
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < nTraces; i++ {
			t++
			evs = append(evs, tracelog.Event{Kind: tracelog.KindAccess, Time: t, Trace: uint64(i + 1)})
		}
	}
	t++
	evs = append(evs, tracelog.Event{Kind: tracelog.KindEnd, Time: t})
	return evs
}

func TestReplayAllFits(t *testing.T) {
	evs := mkLog(5, 100, 10)
	res, err := ReplayUnified("b", evs, 1000, costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 || res.Hits != 50 || res.Accesses != 50 {
		t.Errorf("result = %+v", res)
	}
	if res.ColdCreates != 5 {
		t.Errorf("cold creates = %d", res.ColdCreates)
	}
	if res.MissRate() != 0 {
		t.Errorf("miss rate = %v", res.MissRate())
	}
	// Overhead: 5 trace gens, 10 context switches, nothing else.
	if res.Overhead.TraceGens != 5 || res.Overhead.ContextSwitches != 10 {
		t.Errorf("overhead = %+v", res.Overhead)
	}
}

func TestReplayThrashing(t *testing.T) {
	// 10 traces of 100 bytes round-robin through a 500-byte cache: every
	// access is a miss (classic FIFO thrash).
	evs := mkLog(10, 100, 5)
	res, err := ReplayUnified("b", evs, 500, costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 {
		t.Errorf("expected pure thrash, got %d hits", res.Hits)
	}
	if res.Misses != res.Accesses || res.Accesses != 50 {
		t.Errorf("misses %d accesses %d", res.Misses, res.Accesses)
	}
	if res.Regenerations != 50 {
		t.Errorf("regenerations = %d", res.Regenerations)
	}
	if res.MissRate() != 1 {
		t.Errorf("miss rate = %v", res.MissRate())
	}
}

func TestReplayErrors(t *testing.T) {
	model := costmodel.DefaultModel
	t.Run("unknown access", func(t *testing.T) {
		evs := []tracelog.Event{{Kind: tracelog.KindAccess, Time: 1, Trace: 9}}
		if _, err := ReplayUnified("b", evs, 100, model); err == nil {
			t.Error("access to unknown trace accepted")
		}
	})
	t.Run("duplicate create", func(t *testing.T) {
		evs := []tracelog.Event{
			{Kind: tracelog.KindCreate, Time: 1, Trace: 1, Size: 10},
			{Kind: tracelog.KindCreate, Time: 2, Trace: 1, Size: 10},
		}
		if _, err := ReplayUnified("b", evs, 100, model); err == nil {
			t.Error("duplicate create accepted")
		}
	})
	t.Run("access after unmap", func(t *testing.T) {
		evs := []tracelog.Event{
			{Kind: tracelog.KindCreate, Time: 1, Trace: 1, Size: 10, Module: 2},
			{Kind: tracelog.KindUnmap, Time: 2, Module: 2},
			{Kind: tracelog.KindAccess, Time: 3, Trace: 1},
		}
		if _, err := ReplayUnified("b", evs, 100, model); err == nil {
			t.Error("access to unmapped trace accepted")
		}
	})
	t.Run("bad kind", func(t *testing.T) {
		evs := []tracelog.Event{{Kind: tracelog.Kind(42), Time: 1}}
		if _, err := ReplayUnified("b", evs, 100, model); err == nil {
			t.Error("bad kind accepted")
		}
	})
}

func TestReplayUnmapChargesEvictions(t *testing.T) {
	evs := []tracelog.Event{
		{Kind: tracelog.KindCreate, Time: 1, Trace: 1, Size: 100, Module: 2},
		{Kind: tracelog.KindCreate, Time: 2, Trace: 2, Size: 100, Module: 3},
		{Kind: tracelog.KindUnmap, Time: 3, Module: 2},
		{Kind: tracelog.KindEnd, Time: 4},
	}
	res, err := ReplayUnified("b", evs, 1000, costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForcedDeletes != 1 {
		t.Errorf("forced deletes = %d", res.ForcedDeletes)
	}
	if res.Overhead.Evictions != 1 {
		t.Errorf("eviction charges = %d", res.Overhead.Evictions)
	}
}

func TestReplayPinning(t *testing.T) {
	// Pin trace 1; a conflicting insert must evict others, keeping 1.
	evs := []tracelog.Event{
		{Kind: tracelog.KindCreate, Time: 1, Trace: 1, Size: 100},
		{Kind: tracelog.KindPin, Time: 2, Trace: 1},
		{Kind: tracelog.KindCreate, Time: 3, Trace: 2, Size: 100},
		{Kind: tracelog.KindCreate, Time: 4, Trace: 3, Size: 100}, // cache is 200: must evict 2, not 1
		{Kind: tracelog.KindAccess, Time: 5, Trace: 1},
		{Kind: tracelog.KindUnpin, Time: 6, Trace: 1},
		{Kind: tracelog.KindEnd, Time: 7},
	}
	res, err := ReplayUnified("b", evs, 200, costmodel.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 1 || res.Misses != 0 {
		t.Errorf("pinned trace was evicted: %+v", res)
	}
}

// TestGenerationalBeatsUnifiedOnPhasedWorkload builds the canonical workload
// the paper's design targets: a small set of hot long-lived traces accessed
// throughout, plus phases of short-lived traces that are created, briefly
// used, and abandoned. The generational cache must hold the long-lived set
// in its persistent cache and take fewer misses than the unified cache.
func TestGenerationalBeatsUnifiedOnPhasedWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var evs []tracelog.Event
	tm := uint64(0)
	next := uint64(1)
	emit := func(e tracelog.Event) { tm++; e.Time = tm; evs = append(evs, e) }

	// 8 long-lived traces, hit often enough that a probation stay earns a
	// hit (the generational hypothesis requires the persistent set to fit
	// the persistent cache: 8*200 = 1600 < 45% of 6000).
	var hot []uint64
	for i := 0; i < 8; i++ {
		emit(tracelog.Event{Kind: tracelog.KindCreate, Trace: next, Size: 200})
		hot = append(hot, next)
		next++
	}
	// 30 phases; each phase creates 25 short-lived traces spread across the
	// phase (trace creation interleaves with execution in a real dynamic
	// optimizer). Each transient trace is touched a couple of times right
	// after creation — while it still sits in the nursery — and then never
	// again, which is exactly the lifetime profile the paper observes for
	// short-lived traces. The transient flood cycles a unified FIFO past
	// the hot traces; the generational layout contains it in the nursery.
	for p := 0; p < 30; p++ {
		created := 0
		for k := 0; k < 325; k++ {
			if created < 25 && k%13 == 0 {
				emit(tracelog.Event{Kind: tracelog.KindCreate, Trace: next, Size: 200})
				emit(tracelog.Event{Kind: tracelog.KindAccess, Trace: next})
				emit(tracelog.Event{Kind: tracelog.KindAccess, Trace: next})
				next++
				created++
				continue
			}
			emit(tracelog.Event{Kind: tracelog.KindAccess, Trace: hot[r.Intn(len(hot))]})
		}
	}
	emit(tracelog.Event{Kind: tracelog.KindEnd})

	// Cache sized well below the per-phase footprint (8+25 traces = 6600B)
	// so both configurations face real pressure.
	capacity := uint64(6000)
	cmp, err := Compare("phased", evs, core.Layout451045Threshold1(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Unified.Misses == 0 {
		t.Fatal("workload does not stress the unified cache")
	}
	if cmp.MissesEliminated() <= 0 {
		t.Fatalf("generational did not eliminate misses: unified %d vs generational %d",
			cmp.Unified.Misses, cmp.Generational.Misses)
	}
	if cmp.MissRateReduction() <= 0 {
		t.Fatalf("miss-rate reduction = %v", cmp.MissRateReduction())
	}
	if cmp.OverheadRatio() >= 1 {
		t.Fatalf("overhead ratio = %v, want < 1", cmp.OverheadRatio())
	}
}

func TestCompareNamesAndConfigs(t *testing.T) {
	evs := mkLog(3, 50, 2)
	cmp, err := Compare("b", evs, core.Layout433Threshold10(600))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cmp.Unified.Config, "unified/") {
		t.Errorf("unified config = %q", cmp.Unified.Config)
	}
	if !strings.HasPrefix(cmp.Generational.Config, "generational/") {
		t.Errorf("generational config = %q", cmp.Generational.Config)
	}
	if cmp.Unified.Benchmark != "b" || cmp.Generational.Benchmark != "b" {
		t.Error("benchmark names wrong")
	}
}

func TestComparisonZeroMissBaseline(t *testing.T) {
	c := Comparison{}
	if c.MissRateReduction() != 0 {
		t.Error("zero baseline should give zero reduction")
	}
}

func TestReplayGenerationalBadConfig(t *testing.T) {
	if _, err := ReplayGenerational("b", nil, core.GraphSpec{}, costmodel.DefaultModel); err == nil {
		t.Error("bad config accepted")
	}
}

// TestQuickReplayConservation: for random logs, hits + misses always equals
// accesses, cold creates equals distinct created traces, and the same log
// replayed twice gives identical results (determinism).
func TestQuickReplayConservation(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 40; iter++ {
		var evs []tracelog.Event
		tm := uint64(0)
		created := map[uint64]bool{}
		dead := map[uint64]bool{}
		var ids []uint64
		for i := 0; i < 400; i++ {
			tm++
			switch k := r.Intn(10); {
			case k < 3:
				id := uint64(len(created) + 1)
				created[id] = true
				ids = append(ids, id)
				evs = append(evs, tracelog.Event{Kind: tracelog.KindCreate, Time: tm,
					Trace: id, Size: uint32(64 + r.Intn(400)), Module: uint16(r.Intn(3))})
			case k < 9 && len(ids) > 0:
				id := ids[r.Intn(len(ids))]
				if dead[id] {
					continue
				}
				evs = append(evs, tracelog.Event{Kind: tracelog.KindAccess, Time: tm, Trace: id})
			case len(ids) > 0:
				m := uint16(r.Intn(3))
				evs = append(evs, tracelog.Event{Kind: tracelog.KindUnmap, Time: tm, Module: m})
				// Mark module members dead so we never access them again.
				for j, e := range evs {
					_ = j
					if e.Kind == tracelog.KindCreate && e.Module == m {
						dead[e.Trace] = true
					}
				}
			}
		}
		capacity := uint64(2048 + r.Intn(8192))
		res1, err := ReplayUnified("q", evs, capacity, costmodel.DefaultModel)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if res1.Hits+res1.Misses != res1.Accesses {
			t.Fatalf("iter %d: hits %d + misses %d != accesses %d", iter, res1.Hits, res1.Misses, res1.Accesses)
		}
		if res1.ColdCreates != uint64(len(created)) {
			t.Fatalf("iter %d: cold creates %d != %d", iter, res1.ColdCreates, len(created))
		}
		res2, err := ReplayUnified("q", evs, capacity, costmodel.DefaultModel)
		if err != nil {
			t.Fatal(err)
		}
		if res1.Hits != res2.Hits || res1.Misses != res2.Misses || res1.ForcedDeletes != res2.ForcedDeletes {
			t.Fatalf("iter %d: nondeterministic replay", iter)
		}
		// Generational replay obeys the same conservation law.
		g, err := ReplayGenerational("q", evs, core.Layout451045Threshold1(capacity), costmodel.DefaultModel)
		if err != nil {
			t.Fatal(err)
		}
		if g.Hits+g.Misses != g.Accesses {
			t.Fatalf("iter %d: generational conservation broken", iter)
		}
	}
}
