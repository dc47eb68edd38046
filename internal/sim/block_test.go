package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tracelog"
)

// richLog builds a deterministic multi-module workload exercising every
// event kind the replayer handles: creates and adoptions across modules,
// skewed accesses, pins, and module unmaps followed by fresh creates. The
// log is semantically valid (no access to an unmapped or unknown trace), so
// both replay paths must run it to completion.
func richLog(seed int64, rounds int) []tracelog.Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []tracelog.Event
	var clock uint64
	tick := func() uint64 { clock++; return clock }
	nextID := uint64(1)
	const nMods = 4
	liveByMod := make([][]uint64, nMods)
	var live []uint64 // flattened view for access picks

	reflatten := func() {
		live = live[:0]
		for _, ids := range liveByMod {
			live = append(live, ids...)
		}
	}
	create := func(mod int, kind tracelog.Kind) {
		id := nextID
		nextID++
		evs = append(evs, tracelog.Event{
			Kind: kind, Time: tick(), Trace: id,
			Size: uint32(64 + rng.Intn(512)), Module: uint16(mod), Head: 0x1000 * id,
		})
		liveByMod[mod] = append(liveByMod[mod], id)
	}

	for i := 0; i < 10*nMods; i++ {
		kind := tracelog.KindCreate
		if i%7 == 3 {
			kind = tracelog.KindAdopt
		}
		create(i%nMods, kind)
	}
	reflatten()
	for r := 0; r < rounds; r++ {
		for k := 0; k < 30; k++ {
			// Skew toward low IDs so some traces stay hot across rounds.
			i := rng.Intn(len(live))
			if rng.Intn(3) > 0 {
				i /= 4
			}
			evs = append(evs, tracelog.Event{Kind: tracelog.KindAccess, Time: tick(), Trace: live[i]})
		}
		if r%9 == 4 {
			id := live[rng.Intn(len(live))]
			evs = append(evs,
				tracelog.Event{Kind: tracelog.KindPin, Time: tick(), Trace: id},
				tracelog.Event{Kind: tracelog.KindUnpin, Time: tick(), Trace: id})
		}
		if r%16 == 11 {
			mod := rng.Intn(nMods)
			evs = append(evs, tracelog.Event{Kind: tracelog.KindUnmap, Time: tick(), Module: uint16(mod)})
			liveByMod[mod] = liveByMod[mod][:0]
			for i := 0; i < 6; i++ {
				create(mod, tracelog.KindCreate)
			}
			reflatten()
		}
	}
	evs = append(evs, tracelog.Event{Kind: tracelog.KindEnd, Time: tick()})
	return evs
}

// kernelConfigs builds one fresh manager+accumulator per named configuration
// family, with extra fanned into the manager observer chain the same way the
// replay conveniences and the served sessions wire it.
func kernelConfigs(t *testing.T, extra obs.Observer) map[string]func() (*core.Graph, *costmodel.Accum) {
	t.Helper()
	spec := core.Layout451045Threshold1(6000)
	return map[string]func() (*core.Graph, *costmodel.Accum){
		"unified": func() (*core.Graph, *costmodel.Accum) {
			acc := costmodel.NewAccum(costmodel.DefaultModel)
			return core.NewUnified(6000, nil, obs.Combine(CostObserver(acc), extra)), acc
		},
		"generational": func() (*core.Graph, *costmodel.Accum) {
			acc := costmodel.NewAccum(costmodel.DefaultModel)
			mgr, err := core.NewGraph(spec, obs.Combine(CostObserver(acc), extra))
			if err != nil {
				t.Fatal(err)
			}
			return mgr, acc
		},
		"tier-graph": func() (*core.Graph, *costmodel.Accum) {
			acc := costmodel.NewAccum(costmodel.DefaultModel)
			spec, err := core.ParseTierSpec("30-15-15-40@2", 6000)
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := core.NewGraph(spec, obs.Combine(CostObserver(acc), extra))
			if err != nil {
				t.Fatal(err)
			}
			return mgr, acc
		},
		"shared": func() (*core.Graph, *costmodel.Accum) {
			acc := costmodel.NewAccum(costmodel.DefaultModel)
			o := obs.Combine(CostObserver(acc), extra)
			sp := core.NewSharedPersistent(2700, o)
			mgr, err := core.NewGraphShared(spec, sp, 0, o)
			if err != nil {
				t.Fatal(err)
			}
			return mgr, acc
		},
	}
}

// hookCall records one Hooks callout for sequence comparison.
type hookCall struct {
	what   string
	trace  uint64
	size   uint32
	module uint16
	head   uint64
}

type recordingHooks struct{ calls []hookCall }

func (h *recordingHooks) Registered(tr uint64, sz uint32, mod uint16, hd uint64) {
	h.calls = append(h.calls, hookCall{"reg", tr, sz, mod, hd})
}
func (h *recordingHooks) Regenerated(tr uint64, sz uint32, mod uint16, hd uint64) {
	h.calls = append(h.calls, hookCall{"regen", tr, sz, mod, hd})
}
func (h *recordingHooks) Unmapped(mod uint16) {
	h.calls = append(h.calls, hookCall{what: "unmap", module: mod})
}

// replayPerEvent is the per-event reference path.
func replayPerEvent(rep *Replayer, events []tracelog.Event) error {
	for _, e := range events {
		if err := rep.Step(e); err != nil {
			return err
		}
	}
	return nil
}

// replayBlocks drives the same events through StepBlock at the given block
// capacity.
func replayBlocks(rep *Replayer, events []tracelog.Event, blockCap int) error {
	b := tracelog.NewEventBlock(blockCap)
	for off := 0; off < len(events); {
		off += b.Fill(events[off:])
		if err := rep.StepBlock(b); err != nil {
			return err
		}
	}
	return nil
}

func resultsEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(*got.Overhead, *want.Overhead) {
		t.Errorf("%s: overhead = %+v, want %+v", label, *got.Overhead, *want.Overhead)
	}
	got.Overhead, want.Overhead = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result = %+v, want %+v", label, got, want)
	}
}

// TestStepBlockMatchesStep is the kernel's core equivalence claim: for every
// manager family the service can build, the block kernel's counters,
// overhead accounting, per-kind and per-level tally of the manager's events,
// event count, and hook callout sequence are bit-identical to the per-event
// path — at every block size, including sizes that split access runs across
// blocks.
func TestStepBlockMatchesStep(t *testing.T) {
	events := richLog(7, 120)
	var tally stats.Tally
	for name, build := range kernelConfigs(t, obs.Func(func(e obs.Event) { tally.Add(&e) })) {
		tally = stats.Tally{}
		mgr, acc := build()
		want := NewReplayer("b", mgr, acc, nil)
		wantHooks := &recordingHooks{}
		want.SetHooks(wantHooks)
		if err := replayPerEvent(want, events); err != nil {
			t.Fatalf("%s: per-event: %v", name, err)
		}
		wantRes := want.Finish()
		wantTally := tally

		for _, blockCap := range []int{1, 13, 257, tracelog.BlockEvents} {
			tally = stats.Tally{}
			mgr, acc := build()
			got := NewReplayer("b", mgr, acc, nil)
			gotHooks := &recordingHooks{}
			got.SetHooks(gotHooks)
			if err := replayBlocks(got, events, blockCap); err != nil {
				t.Fatalf("%s/cap=%d: block: %v", name, blockCap, err)
			}
			if got.Events() != want.Events() {
				t.Errorf("%s/cap=%d: events = %d, want %d", name, blockCap, got.Events(), want.Events())
			}
			resultsEqual(t, name, got.Finish(), wantRes)
			if tally != wantTally {
				t.Errorf("%s/cap=%d: event tally = %+v, want %+v", name, blockCap, tally, wantTally)
			}
			if !reflect.DeepEqual(gotHooks.calls, wantHooks.calls) {
				t.Errorf("%s/cap=%d: hook sequence diverged (%d vs %d calls)",
					name, blockCap, len(gotHooks.calls), len(wantHooks.calls))
			}
			got.Recycle()
		}
		want.Recycle()
	}
}

// TestStepBlockObservedStream: the full observer event stream — manager
// lifecycle events and replay progress — is identical between the kernel and
// per-event Step for every manager family and block size, both with a
// progress observer attached (the kernel emits progress itself, ending
// access runs at stride boundaries) and with only the manager observer
// wired. The log spans several progress strides, so mid-replay progress
// events and their positions among the manager's events are compared, and
// the odd block sizes put stride boundaries inside blocks and access runs.
func TestStepBlockObservedStream(t *testing.T) {
	events := richLog(11, 1700)
	if len(events) < 3*ProgressStride {
		t.Fatalf("log has %d events, want at least %d", len(events), 3*ProgressStride)
	}
	collect := func(dst *[]obs.Event) obs.Observer {
		return obs.Func(func(e obs.Event) { *dst = append(*dst, e) })
	}
	// replay runs one family with both observers appending to one stream,
	// through Step when blockCap is 0 and StepBlock otherwise.
	replay := func(family string, withProgress bool, blockCap int) (Result, []obs.Event) {
		var stream []obs.Event
		mgr, acc := kernelConfigs(t, collect(&stream))[family]()
		var po obs.Observer
		if withProgress {
			po = collect(&stream)
		}
		rep := NewReplayer("b", mgr, acc, po)
		defer rep.Recycle()
		rep.SetTotal(uint64(len(events)))
		var err error
		if blockCap == 0 {
			err = replayPerEvent(rep, events)
		} else {
			err = replayBlocks(rep, events, blockCap)
		}
		if err != nil {
			t.Fatalf("%s/cap=%d: %v", family, blockCap, err)
		}
		return rep.Finish(), stream
	}
	for family := range kernelConfigs(t, nil) {
		for _, withProgress := range []bool{true, false} {
			wantRes, wantEvents := replay(family, withProgress, 0)
			if withProgress {
				mid := 0
				for _, e := range wantEvents {
					if e.Kind == obs.KindProgress && e.Done < e.Total {
						mid++
					}
				}
				if mid < 3 {
					t.Fatalf("%s: %d mid-replay progress events, want at least 3", family, mid)
				}
			}
			for _, blockCap := range []int{1, 13, 4095, tracelog.BlockEvents} {
				label := fmt.Sprintf("%s/progress=%v/cap=%d", family, withProgress, blockCap)
				gotRes, gotEvents := replay(family, withProgress, blockCap)
				resultsEqual(t, label, gotRes, wantRes)
				if !reflect.DeepEqual(gotEvents, wantEvents) {
					i := 0
					for i < len(gotEvents) && i < len(wantEvents) && gotEvents[i] == wantEvents[i] {
						i++
					}
					t.Errorf("%s: observer stream diverged at event %d (%d vs %d events)",
						label, i, len(gotEvents), len(wantEvents))
				}
			}
		}
	}
}

// TestStepBlockErrorEquivalence: a log that fails mid-block leaves the block
// path with the same partial result, the same event count, and the same
// error as the per-event path.
func TestStepBlockErrorEquivalence(t *testing.T) {
	events := richLog(3, 40)
	// Splice an access to a trace that was never created into the middle.
	bad := make([]tracelog.Event, 0, len(events)+1)
	bad = append(bad, events[:len(events)/2]...)
	bad = append(bad, tracelog.Event{Kind: tracelog.KindAccess, Time: 1 << 40, Trace: 999999})
	bad = append(bad, events[len(events)/2:]...)

	mgr, acc := kernelConfigs(t, nil)["generational"]()
	want := NewReplayer("b", mgr, acc, nil)
	wantErr := replayPerEvent(want, bad)
	if wantErr == nil {
		t.Fatal("per-event path accepted the spliced log")
	}

	for _, blockCap := range []int{1, 17, tracelog.BlockEvents} {
		mgr, acc := kernelConfigs(t, nil)["generational"]()
		got := NewReplayer("b", mgr, acc, nil)
		gotErr := replayBlocks(got, bad, blockCap)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("cap=%d: err = %v, want %v", blockCap, gotErr, wantErr)
		}
		if got.Events() != want.Events() {
			t.Errorf("cap=%d: events = %d, want %d", blockCap, got.Events(), want.Events())
		}
		resultsEqual(t, "partial", got.Result(), want.Result())
	}
}

// TestStepBlockFigure9: the paper-facing comparison metrics (Figure 9's
// miss-rate reduction, Figure 10's misses eliminated, Figure 11's overhead
// ratio) computed through the block-kernel Compare match a hand-rolled
// per-event replay of both configurations.
func TestStepBlockFigure9(t *testing.T) {
	events := richLog(23, 160)
	const capacity = 5000
	spec := core.Layout451045Threshold1(capacity)
	got, err := Compare("b", events, spec)
	if err != nil {
		t.Fatal(err)
	}

	perEvent := func(build func() (*core.Graph, *costmodel.Accum)) Result {
		mgr, acc := build()
		rep := NewReplayer("b", mgr, acc, nil)
		if err := replayPerEvent(rep, events); err != nil {
			t.Fatal(err)
		}
		return rep.Finish()
	}
	u := perEvent(func() (*core.Graph, *costmodel.Accum) {
		acc := costmodel.NewAccum(costmodel.DefaultModel)
		return core.NewUnified(capacity, nil, CostObserver(acc)), acc
	})
	g := perEvent(func() (*core.Graph, *costmodel.Accum) {
		acc := costmodel.NewAccum(costmodel.DefaultModel)
		mgr, err := core.NewGraph(spec, CostObserver(acc))
		if err != nil {
			t.Fatal(err)
		}
		return mgr, acc
	})
	want := Comparison{Unified: u, Generational: g}

	if got.MissRateReduction() != want.MissRateReduction() {
		t.Errorf("miss-rate reduction = %v, want %v", got.MissRateReduction(), want.MissRateReduction())
	}
	if got.MissesEliminated() != want.MissesEliminated() {
		t.Errorf("misses eliminated = %d, want %d", got.MissesEliminated(), want.MissesEliminated())
	}
	if got.OverheadRatio() != want.OverheadRatio() {
		t.Errorf("overhead ratio = %v, want %v", got.OverheadRatio(), want.OverheadRatio())
	}
	resultsEqual(t, "unified", got.Unified, want.Unified)
	resultsEqual(t, "generational", got.Generational, want.Generational)
}

// TestRecycleIsolation: a replayer built over recycled scratch behaves
// exactly like one built over fresh tables, and concurrent replays sharing
// the pool stay independent (exercised under -race in CI).
func TestRecycleIsolation(t *testing.T) {
	events := richLog(5, 60)
	fresh := func() Result {
		mgr, acc := kernelConfigs(t, nil)["generational"]()
		rep := NewReplayer("b", mgr, acc, nil)
		if err := replayBlocks(rep, events, 128); err != nil {
			t.Fatal(err)
		}
		res := rep.Finish()
		rep.Recycle()
		return res
	}
	want := fresh()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				res := fresh()
				resCopy, wantCopy := res, want
				resCopy.Overhead, wantCopy.Overhead = nil, nil
				if !reflect.DeepEqual(resCopy, wantCopy) {
					t.Errorf("recycled replay diverged: %+v != %+v", resCopy, wantCopy)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStepBlockZeroAlloc is the replay half of the ingest path's allocation
// guard: replaying a block of steady-state accesses (everything resident,
// all hits) through the counter-only fast path must not allocate at all.
func TestStepBlockZeroAlloc(t *testing.T) {
	mgr, acc := kernelConfigs(t, nil)["generational"]()
	rep := NewReplayer("b", mgr, acc, nil)
	defer rep.Recycle()
	b := tracelog.NewEventBlock(tracelog.BlockEvents)
	const n = 8
	clock := uint64(0)
	for i := 0; i < n; i++ {
		clock++
		if err := rep.Step(tracelog.Event{Kind: tracelog.KindCreate, Time: clock, Trace: uint64(i + 1), Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < b.Cap(); i++ {
		clock++
		b.Kind[i] = tracelog.KindAccess
		b.Time[i] = clock
		b.Trace[i] = uint64(i%n + 1)
	}
	b.N = b.Cap()
	// Warm once so every trace is resident and promoted where it will stay.
	if err := rep.StepBlock(b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := rep.StepBlock(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StepBlock allocated %.1f times per %d-event block; want 0", allocs, b.N)
	}
}
