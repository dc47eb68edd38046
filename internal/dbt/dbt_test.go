package dbt

import (
	"bytes"
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// buildLoopProgram: a counted loop that runs iters times, then exits.
func buildLoopProgram(t *testing.T, iters int64) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	m := b.Module("main", false)
	fb, mainFn := m.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: iters})
	loop := fb.NewBlock()
	fb.Jmp(loop)
	fb.StartBlock(loop)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmp, Rs1: 1, Rs2: 2})
	fb.Jcc(isa.CondLT, loop)
	fb.Block()
	fb.Halt()
	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func runUnderEngine(t *testing.T, img *program.Image, cfg Config) (*Engine, *vm.Machine) {
	t.Helper()
	if cfg.Manager == nil {
		cfg.Manager = core.NewUnified(1<<20, nil, nil)
	}
	e, err := New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(&VMGuest{M: m}, 0); err != nil {
		t.Fatal(err)
	}
	return e, m
}

func TestLoopCreatesOneTrace(t *testing.T) {
	img := buildLoopProgram(t, 500)
	e, m := runUnderEngine(t, img, Config{HotThreshold: 50})
	if !m.Halted() {
		t.Fatal("guest did not finish")
	}
	s := e.Stats()
	if s.TracesCreated != 1 {
		t.Fatalf("traces created = %d, want 1 (the loop body)", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("misses = %d", s.Misses)
	}
	// The loop self-links: after the single dispatch entry, iterations stay
	// inside the trace, so accesses ~ 1.
	if s.Accesses != 1 {
		t.Errorf("accesses = %d, want 1 (self-linked loop)", s.Accesses)
	}
	if s.InTraceSteps < 400 {
		t.Errorf("in-trace steps = %d, want most of the 500 iterations", s.InTraceSteps)
	}
	// The trace head must be the loop block.
	entry := img.MustBlock(img.Entry)
	loopAddr := entry.Last().Target
	if _, ok := e.TraceFor(loopAddr); !ok {
		t.Error("no trace at loop head")
	}
	if s.BBCopied == 0 || s.BBBytes == 0 {
		t.Error("basic blocks were not copied")
	}
	if s.PeakCacheBytes == 0 || s.FinalCacheBytes == 0 {
		t.Error("cache size accounting missing")
	}
}

func TestThresholdRespected(t *testing.T) {
	// 40 iterations with threshold 50: no trace.
	img := buildLoopProgram(t, 40)
	e, _ := runUnderEngine(t, img, Config{HotThreshold: 50})
	if s := e.Stats(); s.TracesCreated != 0 {
		t.Errorf("traces created = %d, want 0", s.TracesCreated)
	}
	// Same program with threshold 10: trace appears.
	e2, _ := runUnderEngine(t, img, Config{HotThreshold: 10})
	if s := e2.Stats(); s.TracesCreated != 1 {
		t.Errorf("traces created = %d, want 1", s.TracesCreated)
	}
}

func TestEngineMatchesInterpreter(t *testing.T) {
	// The engine observes but must not perturb execution: a plain VM run
	// and an engine-driven run end in identical architectural state.
	img := buildLoopProgram(t, 300)
	_, m1 := runUnderEngine(t, img, Config{HotThreshold: 20})
	m2 := vm.New(img)
	if _, err := m2.Run(0); err != nil {
		t.Fatal(err)
	}
	if m1.Regs != m2.Regs {
		t.Errorf("register files differ:\n%v\n%v", m1.Regs, m2.Regs)
	}
	if m1.InstCount != m2.InstCount || m1.BlockCount != m2.BlockCount {
		t.Errorf("execution counts differ: %d/%d vs %d/%d",
			m1.InstCount, m1.BlockCount, m2.InstCount, m2.BlockCount)
	}
}

// buildTwoPhaseProgram runs loop A for itersA, loads a DLL, runs its loop
// for itersB, unloads the DLL, then repeats loop A briefly.
func buildTwoPhaseProgram(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	m := b.Module("main", false)
	dll := b.Module("plugin", true)

	pb, pluginFn := dll.Function("plugin")
	pb.Block()
	pb.I(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 0})
	ploop := pb.NewBlock()
	pb.Jmp(ploop)
	pb.StartBlock(ploop)
	pb.I(isa.Inst{Op: isa.OpAddImm, Rd: 3, Rs1: 3, Imm: 1})
	pb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 3, Imm: 200})
	pb.Jcc(isa.CondLT, ploop)
	pb.Block()
	pb.Ret()

	fb, mainFn := m.Function("main")
	// Loop A.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	aloop := fb.NewBlock()
	fb.Jmp(aloop)
	fb.StartBlock(aloop)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 300})
	fb.Jcc(isa.CondLT, aloop)
	// Call plugin.
	fb.Block()
	fb.Call(pluginFn)
	// Unload plugin.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 1})
	fb.Syscall(isa.SysUnloadModule)
	// Loop A again, briefly.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	bloop := fb.NewBlock()
	fb.Jmp(bloop)
	fb.StartBlock(bloop)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 100})
	fb.Jcc(isa.CondLT, bloop)
	fb.Block()
	fb.Halt()

	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestModuleUnloadForcesEviction(t *testing.T) {
	img := buildTwoPhaseProgram(t)
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "twophase"})
	if err != nil {
		t.Fatal(err)
	}
	lt := stats.NewLifetimes()
	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{Manager: mgr, HotThreshold: 50, Log: w, Lifetimes: lt})
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(&VMGuest{M: m}, 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesCreated < 3 {
		t.Fatalf("traces created = %d, want >= 3 (loop A, plugin loop, loop B)", s.TracesCreated)
	}
	if s.UnmappedTraces != 1 {
		t.Fatalf("unmapped traces = %d, want 1 (the plugin loop)", s.UnmappedTraces)
	}
	if s.UnmappedBytes == 0 {
		t.Error("unmapped bytes not counted")
	}

	// The emitted log replays cleanly and shows the unmap.
	h, events, err := tracelog.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Benchmark != "twophase" {
		t.Errorf("header = %+v", h)
	}
	sum := tracelog.Summarize(h, events)
	if sum.Creates != s.TracesCreated {
		t.Errorf("log creates %d != engine %d", sum.Creates, s.TracesCreated)
	}
	if sum.Unmaps != 1 || sum.UnmappedBytes != s.UnmappedBytes {
		t.Errorf("log unmaps %d/%d, engine %d", sum.Unmaps, sum.UnmappedBytes, s.UnmappedBytes)
	}
	if lt.Len() != int(s.TracesCreated) {
		t.Errorf("lifetimes tracked %d, want %d", lt.Len(), s.TracesCreated)
	}
}

// buildAlternatingLoops builds an outer loop that alternates two inner
// loops, generating a steady stream of dispatch accesses to two traces.
func buildAlternatingLoops(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	mod := b.Module("main", false)
	fb, mainFn := mod.Function("main")

	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 5, Imm: 0}) // outer counter
	outer := fb.NewBlock()
	fb.Jmp(outer)

	// Loop 1.
	fb.StartBlock(outer)
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	l1 := fb.NewBlock()
	fb.Jmp(l1)
	fb.StartBlock(l1)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 60})
	fb.Jcc(isa.CondLT, l1)

	// Loop 2.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 0})
	l2 := fb.NewBlock()
	fb.Jmp(l2)
	fb.StartBlock(l2)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 2, Rs1: 2, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 2, Imm: 60})
	fb.Jcc(isa.CondLT, l2)

	// Outer loop back edge.
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 5, Rs1: 5, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 5, Imm: 20})
	fb.Jcc(isa.CondLT, outer)
	fb.Block()
	fb.Halt()
	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestConflictMissesWithTinyCache(t *testing.T) {
	// A trace cache too small for both loop traces forces regeneration
	// when control alternates between them.
	img := buildAlternatingLoops(t)

	// First run unbounded to learn trace sizes.
	big := core.NewUnified(1<<20, nil, nil)
	e1, _ := runUnderEngine(t, img, Config{Manager: big, HotThreshold: 20})
	if e1.Stats().Misses != 0 {
		t.Fatalf("unbounded run missed %d times", e1.Stats().Misses)
	}
	traceBytes := e1.Stats().TraceBytes
	if traceBytes == 0 {
		t.Fatal("no traces created")
	}

	// Now a cache that holds roughly one of the traces.
	tiny := core.NewUnified(traceBytes/3, nil, nil)
	e2, _ := runUnderEngine(t, img, Config{Manager: tiny, HotThreshold: 20})
	s := e2.Stats()
	if s.Misses == 0 {
		t.Fatalf("tiny cache produced no conflict misses (accesses %d)", s.Accesses)
	}
	if s.Regens != s.Misses {
		t.Errorf("regens %d != misses %d", s.Regens, s.Misses)
	}
	if e2.Overhead().TraceGens <= e1.Overhead().TraceGens {
		t.Error("regenerations should add trace-generation cost")
	}
}

func TestEngineErrors(t *testing.T) {
	img := buildLoopProgram(t, 10)
	if _, err := New(img, Config{}); err == nil {
		t.Error("engine without manager accepted")
	}
	e, err := New(img, Config{Manager: core.NewUnified(1000, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(runOf(0, 0xdead)); err == nil {
		t.Error("unknown block accepted")
	}
	if err := e.Observe(&Step{Blocks: []uint64{img.Entry}, Times: []uint64{0, 0}}); err == nil {
		t.Error("step with more times than blocks accepted")
	}
	if err := e.Observe(runOf(0)); err == nil {
		t.Error("empty step accepted")
	}
	// The in-trace path counts instructions from BlockInstrs, which only
	// trace.Build fills.
	if err := e.Preload([]*trace.Trace{{ID: 1, Head: img.Entry, BlockAddrs: []uint64{img.Entry}}}); err == nil {
		t.Error("trace without member instruction counts preloaded")
	}
}

// runOf returns a step running blocks on thread at virtual time 0.
func runOf(thread int, blocks ...uint64) *Step {
	return &Step{Blocks: blocks, Times: make([]uint64, len(blocks)), Thread: thread}
}

func TestMaxBlocksBudget(t *testing.T) {
	img := buildLoopProgram(t, 1_000_000)
	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{Manager: mgr, HotThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(&VMGuest{M: m}, 5000); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Blocks != 5000 {
		t.Errorf("blocks = %d, want exactly the budget", s.Blocks)
	}
}

func TestFragmentOfMapping(t *testing.T) {
	img := buildLoopProgram(t, 200)
	mgr := core.NewUnified(1<<20, nil, nil)
	e, _ := runUnderEngine(t, img, Config{Manager: mgr, HotThreshold: 20})
	entry := img.MustBlock(img.Entry)
	tr, ok := e.TraceFor(entry.Last().Target)
	if !ok {
		t.Fatal("no loop trace")
	}
	var frag codecache.Fragment
	frag = e.fragmentOf(tr)
	if frag.ID != tr.ID || frag.Size != uint64(tr.Size()) || frag.HeadAddr != tr.Head {
		t.Errorf("fragment = %+v for trace %+v", frag, tr)
	}
}

func TestExceptionPinning(t *testing.T) {
	// Alternating loops generate a steady dispatch-access stream; periodic
	// exceptions pin the entered trace, and the pseudo-circular sweep must
	// never evict it while pinned.
	img := buildAlternatingLoops(t)
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{
		Manager:              mgr,
		HotThreshold:         10, // hot quickly
		Log:                  w,
		ExceptionInterval:    5,
		ExceptionPinAccesses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(img)
	if err := e.Run(&VMGuest{M: m}, 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Exceptions == 0 {
		t.Fatal("no exceptions simulated")
	}
	// The log must contain matching pin events that replay cleanly.
	h, events, err := tracelog.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pins, unpins int
	for _, ev := range events {
		switch ev.Kind {
		case tracelog.KindPin:
			pins++
		case tracelog.KindUnpin:
			unpins++
		}
	}
	if uint64(pins) != s.Exceptions {
		t.Errorf("log has %d pins, engine says %d exceptions", pins, s.Exceptions)
	}
	if unpins > pins {
		t.Errorf("more unpins (%d) than pins (%d)", unpins, pins)
	}
	_ = h
}

func TestOptimizedTracesAreSmaller(t *testing.T) {
	// A loop whose body carries redundancy: nops, a self-move, and a
	// foldable constant chain.
	b := program.NewBuilder()
	mod := b.Module("main", false)
	fb, mainFn := mod.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	loop := fb.NewBlock()
	fb.Jmp(loop)
	fb.StartBlock(loop)
	fb.I(isa.Inst{Op: isa.OpNop})
	fb.I(isa.Inst{Op: isa.OpMov, Rd: 6, Rs1: 6})
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 7, Imm: 5})
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 7, Rs1: 7, Imm: 3})
	fb.I(isa.Inst{Op: isa.OpStore, Rs1: 2, Rs2: 7})
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 1, Imm: 200})
	fb.Jcc(isa.CondLT, loop)
	fb.Block()
	fb.Halt()
	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := runUnderEngine(t, img, Config{HotThreshold: 20})
	opt, _ := runUnderEngine(t, img, Config{HotThreshold: 20, Optimize: true})
	sp, so := plain.Stats(), opt.Stats()
	if sp.TracesCreated != so.TracesCreated {
		t.Fatalf("trace counts differ: %d vs %d", sp.TracesCreated, so.TracesCreated)
	}
	if so.TraceBytes > sp.TraceBytes {
		t.Errorf("optimizer grew traces: %d vs %d", so.TraceBytes, sp.TraceBytes)
	}
	if so.OptimizedBytes != sp.TraceBytes-so.TraceBytes {
		t.Errorf("OptimizedBytes %d inconsistent with %d-%d", so.OptimizedBytes, sp.TraceBytes, so.TraceBytes)
	}
	// These synthetic loops carry constant setup code, so at least some
	// instructions should have been optimized away.
	if so.OptimizedInsts == 0 {
		t.Error("optimizer removed nothing from loop traces")
	}
}

func TestTraceLinking(t *testing.T) {
	// Alternating loops: trace A's exit flows into trace B's head and vice
	// versa, so the engine must record direct links between them.
	img := buildAlternatingLoops(t)
	e, _ := runUnderEngine(t, img, Config{HotThreshold: 10})
	s := e.Stats()
	if s.LinksCreated == 0 {
		t.Fatal("no trace links created")
	}
	if err := e.Links().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// With a tiny cache the traces evict each other; each rediscovered
	// eviction must sever that trace's links.
	unbounded := e.Stats().TraceBytes
	tiny := core.NewUnified(unbounded/3, nil, nil)
	e2, _ := runUnderEngine(t, img, Config{Manager: tiny, HotThreshold: 10})
	s2 := e2.Stats()
	if s2.Misses == 0 {
		t.Fatal("tiny cache had no misses")
	}
	if s2.LinksBroken == 0 {
		t.Error("evictions broke no links")
	}
	if err := e2.Links().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnloadBreaksLinks(t *testing.T) {
	img := buildTwoPhaseProgram(t)
	e, _ := runUnderEngine(t, img, Config{HotThreshold: 10})
	s := e.Stats()
	if s.UnmappedTraces == 0 {
		t.Fatal("no unmapped traces")
	}
	// The plugin trace was entered from main's code and returned into it;
	// whether links formed depends on dispatch adjacency, but the table
	// must stay consistent after the unload either way.
	if err := e.Links().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedThreads drives two guest threads through the same loop in
// alternating steps: per-thread contexts must keep trace-following straight,
// both threads may race to record the same head, and exactly one trace per
// head may materialize.
func TestInterleavedThreads(t *testing.T) {
	img := buildLoopProgram(t, 1000) // built walk reused manually below
	entry := img.MustBlock(img.Entry)
	loopAddr := entry.Last().Target
	loopBlk := img.MustBlock(loopAddr)
	exitAddr := loopBlk.FallThrough()

	mgr := core.NewUnified(1<<20, nil, nil)
	e, err := New(img, Config{Manager: mgr, HotThreshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	step := func(thread int, addr uint64) {
		t.Helper()
		if err := e.Observe(runOf(thread, addr)); err != nil {
			t.Fatal(err)
		}
	}
	// Both threads enter the function, then alternate loop iterations.
	step(0, entry.Addr)
	step(1, entry.Addr)
	for i := 0; i < 200; i++ {
		step(0, loopAddr)
		step(1, loopAddr)
	}
	step(0, exitAddr)
	step(1, exitAddr)

	s := e.Stats()
	if s.TracesCreated != 1 {
		t.Fatalf("traces created = %d, want exactly 1 for the shared head", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("misses = %d", s.Misses)
	}
	// Both threads executed inside the trace.
	if s.InTraceSteps < 300 {
		t.Errorf("in-trace steps = %d", s.InTraceSteps)
	}
	// The duplicate-recording race: at threshold crossing both threads can
	// start recordings; at most one materializes, the rest abort.
	if s.TracesCreated+s.RecordingAborted < 1 {
		t.Errorf("bookkeeping wrong: %+v", s)
	}
	if _, ok := e.TraceFor(loopAddr); !ok {
		t.Error("no trace at shared loop head")
	}
}

func TestMaxTraceBlocksVariations(t *testing.T) {
	// The engine must behave sanely across trace-length limits, including
	// degenerate ones.
	img := buildAlternatingLoops(t)
	var prevCreated uint64
	for _, max := range []int{2, 4, 8, 64} {
		e, _ := runUnderEngine(t, img, Config{HotThreshold: 10, MaxTraceBlocks: max})
		s := e.Stats()
		if s.TracesCreated == 0 {
			t.Fatalf("max=%d: no traces", max)
		}
		if s.Misses != 0 {
			t.Errorf("max=%d: unbounded run missed", max)
		}
		_ = prevCreated
		prevCreated = s.TracesCreated
		if err := e.Links().CheckInvariants(); err != nil {
			t.Fatalf("max=%d: %v", max, err)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	// Identical guests and configs must produce identical stats.
	img := buildTwoPhaseProgram(t)
	run := func() RunStats {
		mgr := core.NewUnified(4096, nil, nil)
		e, err := New(img, Config{Manager: mgr, HotThreshold: 10})
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(img)
		if err := e.Run(&VMGuest{M: m}, 0); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic engine:\n%+v\n%+v", a, b)
	}
}
