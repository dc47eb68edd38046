// Hot-path benchmarks and allocation guards for the dispatch loop, the
// arena's insert/evict churn, the policy zoo's evicting inserts, the
// observer emit path and the event log writer. Run them with `go test -bench . -benchmem`; the repository
// benchmark (perfbench) records the end-to-end and per-layer numbers. The
// Test*ZeroAlloc guards run in every `go test` so the zero-allocation
// property of the steady-state paths cannot regress silently.
package repro_test

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// hotLoops is how many independent two-block loops the dispatch benchmarks
// cycle through. Each becomes its own trace, so the steady-state sequence
// alternates between trace bodies and dispatcher entries — the mixed
// in-trace/dispatch regime a real hot guest produces — while keeping the
// head and trace tables at a realistic size (hundreds of hot traces, as in
// the paper's workloads) so map-vs-slice lookup differences show.
const hotLoops = 256

// buildHotLoopImage assembles hotLoops small loops: block A (Add; Jcc exit)
// falling through to block B (Add; Jmp A). Driving A,B,A,B,... makes A a
// backward-branch trace head and records the two-block trace [A,B].
func buildHotLoopImage(tb testing.TB) *program.Image {
	tb.Helper()
	b := program.NewBuilder()
	m := b.Module("hot", false)
	for i := 0; i < hotLoops; i++ {
		f, _ := m.Function(fmt.Sprintf("loop%d", i))
		exit := f.NewBlock()
		a := f.Block()
		f.I(isa.Inst{Op: isa.OpAdd})
		f.Jcc(isa.CondEQ, exit)
		f.Block()
		f.I(isa.Inst{Op: isa.OpAdd})
		f.Jmp(a)
		f.StartBlock(exit)
		f.Halt()
	}
	img, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// hotLoopSteps returns the warmup sequence (each loop iterated past the hot
// threshold so every trace materializes, then two full steady cycles to
// settle heads and links) and one steady cycle: A0,B0,A1,B1,... — per pair,
// one in-trace step and one dispatcher entry into the next loop's trace.
// Every step is a one-block run, so the dispatch benchmarks measure the
// engine per block.
func hotLoopSteps(img *program.Image) (warm, steady []dbt.Step) {
	fns := img.Modules[0].Functions
	for i := 0; i < hotLoops; i++ {
		a, b := fns[i].Blocks[0].Addr, fns[i].Blocks[1].Addr
		for j := 0; j < 60; j++ {
			warm = append(warm, oneBlock(a), oneBlock(b))
		}
	}
	for i := 0; i < hotLoops; i++ {
		a, b := fns[i].Blocks[0].Addr, fns[i].Blocks[1].Addr
		steady = append(steady, oneBlock(a), oneBlock(b))
	}
	warm = append(warm, steady...)
	warm = append(warm, steady...)
	return warm, steady
}

// oneBlock returns a one-block run of addr at virtual time 0.
func oneBlock(addr uint64) dbt.Step {
	return dbt.Step{Blocks: []uint64{addr}, Times: []uint64{0}}
}

// asRun joins one-block steps into a single run.
func asRun(steps []dbt.Step) dbt.Step {
	var run dbt.Step
	for _, st := range steps {
		run.Blocks = append(run.Blocks, st.Blocks...)
		run.Times = append(run.Times, st.Times...)
	}
	return run
}

// newHotEngine builds an engine over the loop image, warmed to steady state:
// every loop's trace exists and every cross-loop link is in place.
func newHotEngine(tb testing.TB, img *program.Image, warm []dbt.Step, slow bool) *dbt.Process {
	tb.Helper()
	eng, err := dbt.New(img, dbt.Config{
		Manager:      core.NewUnified(1<<30, nil, nil),
		SlowDispatch: slow,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range warm {
		if err := eng.Observe(&warm[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

// BenchmarkDispatchSteadyState measures the per-step cost of the warmed
// engine's fast path: dense block lookup, inline-cache/trace-table dispatch,
// in-trace stepping.
func BenchmarkDispatchSteadyState(b *testing.B) {
	img := buildHotLoopImage(b)
	warm, steady := hotLoopSteps(img)
	eng := newHotEngine(b, img, warm, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Observe(&steady[i%len(steady)]); err != nil {
			b.Fatal(err)
		}
	}
}

// newHotGraphEngine builds the same warmed engine over a three-tier graph
// with the adaptive split controller attached — the dispatch path every
// manager shares now that every manager is a tier graph, plus
// the controller's per-access sampling.
func newHotGraphEngine(tb testing.TB, img *program.Image, warm []dbt.Step) *dbt.Process {
	tb.Helper()
	spec, err := core.ParseTierSpec("45-10-45@1", 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	spec.Adaptive = &core.AdaptiveConfig{}
	g, err := core.NewGraph(spec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := dbt.New(img, dbt.Config{Manager: g})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range warm {
		if err := eng.Observe(&warm[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

// BenchmarkDispatchGraphSteadyState is the steady-state dispatch workload
// over the adaptive three-tier graph, for comparison with the unified
// manager's number.
func BenchmarkDispatchGraphSteadyState(b *testing.B) {
	img := buildHotLoopImage(b)
	warm, steady := hotLoopSteps(img)
	eng := newHotGraphEngine(b, img, warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Observe(&steady[i%len(steady)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchSteadyStateSlow is the same workload with SlowDispatch
// forcing the original map-based lookups — the pre-optimization baseline,
// kept measurable so the speedup stays tracked.
func BenchmarkDispatchSteadyStateSlow(b *testing.B) {
	img := buildHotLoopImage(b)
	warm, steady := hotLoopSteps(img)
	eng := newHotEngine(b, img, warm, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Observe(&steady[i%len(steady)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaChurn measures steady insert/evict churn with recycled trace
// IDs: the node pool and dense ID index make this allocation-free.
func BenchmarkArenaChurn(b *testing.B) {
	a := codecache.New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := codecache.Fragment{ID: uint64(i%4096) + 1, Size: 1024}
		if err := a.Insert(f, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// policyChurn drives one policy through steady evicting inserts: trace IDs
// cycle through a space several times the arena's resident count (so every
// insert evicts and the per-ID tables are sized after one cycle), sizes vary
// so the arena fragments, and each insert is followed by one access to a
// recent trace so recency and re-reference state move as in a replay.
type policyChurn struct {
	a    *codecache.Arena
	p    policy.Local
	next uint64
}

// policyChurnIDs is the trace ID space policyChurn cycles through.
const policyChurnIDs = 1 << 14

func newPolicyChurn(tb testing.TB, spec string, capacity uint64) *policyChurn {
	tb.Helper()
	fac, err := policy.Parse(spec)
	if err != nil {
		tb.Fatal(err)
	}
	c := &policyChurn{a: codecache.New(capacity), p: fac.New()}
	for i := 0; i < 2*policyChurnIDs; i++ {
		c.step(tb)
	}
	return c
}

func (c *policyChurn) step(tb testing.TB) {
	id := c.next%policyChurnIDs + 1
	c.next++
	f := codecache.Fragment{ID: id, Size: 64 + (c.next*37)%448, AccessCount: c.next % 3}
	if err := c.p.Insert(c.a, f, nil); err != nil {
		tb.Fatal(err)
	}
	recent := (c.next-1-(c.next*7919)%64)%policyChurnIDs + 1
	if c.a.Access(recent) {
		c.p.OnAccess(c.a, recent)
	}
}

// BenchmarkPolicyInsert measures one evicting insert (and its one access)
// under LRU and TRRIP at two arena sizes. With first fit indexed, LRU's list
// and TRRIP's resumable victim search, the time per insert stays roughly flat
// as the arena grows.
func BenchmarkPolicyInsert(b *testing.B) {
	for _, spec := range []string{"lru", "trrip"} {
		for _, capacity := range []uint64{64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dKiB", spec, capacity>>10), func(b *testing.B) {
				c := newPolicyChurn(b, spec, capacity)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.step(b)
				}
			})
		}
	}
}

// churnLog builds a replay log with enough accesses that observer cost is
// visible next to replay bookkeeping.
func churnLog() []tracelog.Event {
	var events []tracelog.Event
	t := uint64(0)
	for id := uint64(1); id <= 256; id++ {
		t++
		events = append(events, tracelog.Event{Kind: tracelog.KindCreate, Time: t, Trace: id, Size: 256})
	}
	for round := 0; round < 40; round++ {
		for id := uint64(1); id <= 256; id++ {
			t++
			events = append(events, tracelog.Event{Kind: tracelog.KindAccess, Time: t, Trace: id})
		}
	}
	return events
}

// BenchmarkReplayObserverDetached replays with no observer attached.
func BenchmarkReplayObserverDetached(b *testing.B) {
	events := churnLog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplayUnified("bench", events, 32<<10, costmodel.DefaultModel); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(events)))
}

// BenchmarkReplayObserverAttached is the same replay with an EventCounter
// subscribed to the full manager event stream; the zero-allocation emit path
// should keep it near the detached cost.
func BenchmarkReplayObserverAttached(b *testing.B) {
	events := churnLog()
	c := stats.NewEventCounter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := costmodel.NewAccum(costmodel.DefaultModel)
		mgr := core.NewUnified(32<<10, nil, obs.Combine(sim.CostObserver(acc), c))
		if _, err := sim.Replay("bench", events, mgr, acc, c); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(events)))
}

// BenchmarkObserverEmit measures one event through a bus into the standard
// counting consumer.
func BenchmarkObserverEmit(b *testing.B) {
	bus := obs.NewBus(stats.NewEventCounter())
	ev := obs.Event{Kind: obs.KindInsert, Trace: 7, Size: 512, To: obs.LevelNursery}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.Emit(bus, ev)
	}
}

// BenchmarkObserverEmitDetached measures the nobody-listening cost: a nil
// observer is one branch.
func BenchmarkObserverEmitDetached(b *testing.B) {
	var o obs.Observer
	ev := obs.Event{Kind: obs.KindInsert, Trace: 7, Size: 512, To: obs.LevelNursery}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.Emit(o, ev)
	}
}

// ---------------------------------------------------------------------------
// Allocation regression guards. These are tests, not benchmarks, so `go
// test ./...` fails if the steady-state paths start allocating again.

// TestDispatchSteadyStateZeroAlloc guards the warmed engine's steady cycle,
// fed as one-block runs (the dispatch path) and as one long run (the
// in-trace path too), and the workload driver's steady-state Next, which
// hands the collection pass its runs.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	img := buildHotLoopImage(t)
	warm, steady := hotLoopSteps(img)
	eng := newHotEngine(t, img, warm, false)
	allocs := testing.AllocsPerRun(20, func() {
		for i := range steady {
			if err := eng.Observe(&steady[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state dispatch allocated %.1f times per cycle, want 0", allocs)
	}
	run := asRun(steady)
	allocs = testing.AllocsPerRun(20, func() {
		if err := eng.Observe(&run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state dispatch of one long run allocated %.1f times per cycle, want 0", allocs)
	}

	p, _ := workload.ByName("gzip")
	bench, err := workload.Synthesize(p.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	d := bench.NewDriver()
	var st dbt.Step
	next := func() {
		if err := d.Next(&st, math.MaxInt); err != nil || st.Done {
			t.Fatalf("driver stopped early: %v", err)
		}
	}
	for i := 0; i < 300; i++ { // past warmup and several phase ends
		next()
	}
	allocs = testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			next()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Driver.Next allocated %.1f times per 16 runs, want 0", allocs)
	}
}

func TestDispatchGraphSteadyStateZeroAlloc(t *testing.T) {
	img := buildHotLoopImage(t)
	warm, steady := hotLoopSteps(img)
	eng := newHotGraphEngine(t, img, warm)
	allocs := testing.AllocsPerRun(20, func() {
		for i := range steady {
			if err := eng.Observe(&steady[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("tier-graph steady-state dispatch allocated %.1f times per cycle, want 0", allocs)
	}
}

func TestArenaChurnZeroAlloc(t *testing.T) {
	a := codecache.New(1 << 20)
	// Warm: fill the arena and size the dense ID index.
	next := 0
	insert := func() {
		f := codecache.Fragment{ID: uint64(next%4096) + 1, Size: 1024}
		next++
		if err := a.Insert(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8192; i++ {
		insert()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			insert()
		}
	})
	if allocs != 0 {
		t.Fatalf("arena churn allocated %.1f times per 64 inserts, want 0", allocs)
	}
}

// TestPolicyInsertZeroAlloc guards the policy zoo's steady-state evicting
// inserts: LRU's recency list and TRRIP's victim search reuse their tables,
// and the arena recycles its nodes.
func TestPolicyInsertZeroAlloc(t *testing.T) {
	for _, spec := range []string{"lru", "trrip"} {
		c := newPolicyChurn(t, spec, 64<<10)
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 64; i++ {
				c.step(t)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady evicting inserts allocated %.1f times per 64, want 0", spec, allocs)
		}
	}
}

// TestPlaceFirstFitZeroAlloc guards first fit on a fragmented arena whose
// free-run index is built: placing into a hole and freeing it again recycles
// nodes and index links alike.
func TestPlaceFirstFitZeroAlloc(t *testing.T) {
	a := codecache.New(1 << 20)
	for id := uint64(1); id <= 2048; id++ {
		if err := a.PlaceFirstFit(codecache.Fragment{ID: id, Size: 64 + id%7*64}); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 2048; id += 2 {
		if _, err := a.Delete(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if a.FragmentationRatio() == 0 {
		t.Fatal("arena not fragmented")
	}
	size := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			size = size%384 + 32
			f := codecache.Fragment{ID: 1 << 20, Size: size}
			if err := a.PlaceFirstFit(f); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Delete(f.ID, true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("indexed first fit allocated %.1f times per 64 place/delete pairs, want 0", allocs)
	}
}

// TestLogWriterZeroAlloc guards the event log writer a collection pass
// feeds on every trace event: encoding a create, an access and an unmap must
// not allocate, in either wire framing.
func TestLogWriterZeroAlloc(t *testing.T) {
	for _, procs := range []int{1, 2} {
		w, err := tracelog.NewWriter(io.Discard, tracelog.Header{Benchmark: "alloc", Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		var now uint64
		allocs := testing.AllocsPerRun(100, func() {
			now++
			if err := w.Write(tracelog.Event{Kind: tracelog.KindCreate, Time: now, Trace: now, Size: 320, Module: 2, Head: 0x401000 + now, Proc: 1}); err != nil {
				t.Fatal(err)
			}
			if err := w.Write(tracelog.Event{Kind: tracelog.KindAccess, Time: now, Trace: now, Proc: 1}); err != nil {
				t.Fatal(err)
			}
			if err := w.Write(tracelog.Event{Kind: tracelog.KindUnmap, Time: now, Module: 2, Proc: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("log writer (procs %d) allocated %.1f times per create+access+unmap, want 0", procs, allocs)
		}
	}
}

func TestObserverEmitZeroAlloc(t *testing.T) {
	bus := obs.NewBus(stats.NewEventCounter(), stats.NewEventCounter())
	ev := obs.Event{Kind: obs.KindEvict, Trace: 3, Size: 128, From: obs.LevelProbation}
	allocs := testing.AllocsPerRun(100, func() {
		obs.Emit(bus, ev)
	})
	if allocs != 0 {
		t.Fatalf("observer emit allocated %.1f times per event, want 0", allocs)
	}
}
