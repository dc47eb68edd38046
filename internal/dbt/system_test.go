package dbt

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// buildPluginHotProgram: main calls a plugin function 30 times (the outer
// loop stays below the hot threshold), then unloads the plugin. The plugin
// runs two hot 60-iteration loops, so it contributes exactly two traces,
// both from the unloadable module.
func buildPluginHotProgram(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	m := b.Module("main", false)
	dll := b.Module("plugin", true)

	pb, pluginFn := dll.Function("plugin")
	pb.Block()
	pb.I(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 0})
	p1 := pb.NewBlock()
	pb.Jmp(p1)
	pb.StartBlock(p1)
	pb.I(isa.Inst{Op: isa.OpAddImm, Rd: 3, Rs1: 3, Imm: 1})
	pb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 3, Imm: 60})
	pb.Jcc(isa.CondLT, p1)
	pb.Block()
	pb.I(isa.Inst{Op: isa.OpMovImm, Rd: 4, Imm: 0})
	p2 := pb.NewBlock()
	pb.Jmp(p2)
	pb.StartBlock(p2)
	pb.I(isa.Inst{Op: isa.OpAddImm, Rd: 4, Rs1: 4, Imm: 1})
	pb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 4, Imm: 60})
	pb.Jcc(isa.CondLT, p2)
	pb.Block()
	pb.Ret()

	fb, mainFn := m.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 5, Imm: 0})
	outer := fb.NewBlock()
	fb.Jmp(outer)
	fb.StartBlock(outer)
	fb.Call(pluginFn)
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 5, Rs1: 5, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 5, Imm: 30})
	fb.Jcc(isa.CondLT, outer)
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 1})
	fb.Syscall(isa.SysUnloadModule)
	fb.Block()
	fb.Halt()
	b.SetEntry(mainFn)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// maxTraceSize measures the largest trace the program generates, by running
// it once under an unbounded unified cache.
func maxTraceSize(t *testing.T, img *program.Image) uint64 {
	t.Helper()
	var max uint64
	mgr := core.NewUnified(1<<30, nil, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindInsert && e.Size > max {
			max = e.Size
		}
	}))
	runUnderEngine(t, img, Config{Manager: mgr})
	if max == 0 {
		t.Fatal("program generated no traces")
	}
	return max
}

// sharedSystem builds a system with procs front-end processes over one
// shared persistent tier: each process gets a private nursery and probation
// sized to hold one trace (so hot traces are pushed through to the shared
// tier), and the tier itself is comfortably large.
func sharedSystem(t *testing.T, img *program.Image, procs int, traceSize uint64, o obs.Observer, logs []*tracelog.Writer) (*System, *core.SharedPersistent) {
	t.Helper()
	sp := core.NewSharedPersistent(10*traceSize, nil, o)
	sys := NewSystem(sp)
	cfg := core.Config{
		TotalCapacity:    traceSize * 9 / 2,
		NurseryFrac:      1.0 / 3,
		ProbationFrac:    1.0 / 3,
		PersistentFrac:   1.0 / 3,
		PromoteThreshold: 1,
		PromoteOnAccess:  true,
	}
	for p := 0; p < procs; p++ {
		mgr, err := core.NewGraphShared(cfg.GraphSpec(), sp, p, o)
		if err != nil {
			t.Fatal(err)
		}
		pcfg := Config{Manager: mgr}
		if logs != nil {
			pcfg.Log = logs[p]
		}
		if _, err := sys.NewProcess(p, img, pcfg); err != nil {
			t.Fatal(err)
		}
	}
	return sys, sp
}

func TestSharedAdoptionAndOwnerAwareUnmap(t *testing.T) {
	img := buildPluginHotProgram(t)
	size := maxTraceSize(t, img)

	// Record every shared-tier unmap event: owner-aware unmapping must emit
	// exactly one (at the drain), stamped with the last owner.
	var unmaps []obs.Event
	o := obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindUnmap && e.From == core.LevelPersistent {
			unmaps = append(unmaps, e)
		}
	})
	sys, sp := sharedSystem(t, img, 2, size, o, nil)
	vms := []*vm.Machine{vm.New(img), vm.New(img)}
	guests := []Guest{VMGuest{M: vms[0]}, VMGuest{M: vms[1]}}

	// Process 0 warms the tier alone for the first 1500 steps; process 1
	// then runs interleaved, crosses the hot threshold on the plugin loop,
	// and adopts process 0's published trace.
	if err := sys.RunRoundRobin(guests, 64, 1500, 0); err != nil {
		t.Fatal(err)
	}

	procs := sys.Procs()
	s0, s1 := procs[0].Stats(), procs[1].Stats()
	if s0.SharedAdopted != 0 {
		t.Errorf("proc 0 adopted %d traces; it ran first and should have recorded its own", s0.SharedAdopted)
	}
	if s1.SharedAdopted == 0 {
		t.Error("proc 1 adopted nothing; expected it to attach to proc 0's published trace")
	}
	// The engine must not perturb either guest: both VMs end in the same
	// architectural state as a plain interpreter run.
	ref := vm.New(img)
	if _, err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, m := range vms {
		if !m.Halted() {
			t.Errorf("vm %d did not halt", i)
		}
		if m.Regs != ref.Regs {
			t.Errorf("vm %d register file diverged from the interpreter", i)
		}
	}

	// Both processes unmapped the plugin. The shared trace must have died
	// exactly once — on the second unmap, i.e. process 1's, since process 0
	// finished (and unmapped) first while process 1 still owned the trace.
	st := sp.Stats()
	if st.Adoptions == 0 {
		t.Error("shared tier recorded no adoptions")
	}
	if st.Drained == 0 {
		t.Error("shared tier recorded no drained traces")
	}
	if len(unmaps) != int(st.Drained) {
		t.Errorf("%d unmap events for %d drained traces", len(unmaps), st.Drained)
	}
	for _, e := range unmaps {
		if e.Proc != 1 {
			t.Errorf("shared trace %d drained by proc %d; want proc 1 (the last owner)", e.Trace, e.Proc)
		}
	}
	if used := sp.Used(); used != 0 {
		t.Errorf("shared tier still holds %d bytes after both unmaps", used)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunConcurrentShared(t *testing.T) {
	// The same scenario on one goroutine per process: private front-end
	// state stays per-goroutine while the shared tier and the system's ID
	// allocator are hit concurrently. The race detector validates the
	// locking (scripts/ci.sh runs the package under -race).
	img := buildPluginHotProgram(t)
	size := maxTraceSize(t, img)
	const procs = 4
	sys, sp := sharedSystem(t, img, procs, size, nil, nil)
	guests := make([]Guest, procs)
	vms := make([]*vm.Machine, procs)
	for i := range guests {
		vms[i] = vm.New(img)
		guests[i] = VMGuest{M: vms[i]}
	}
	if err := sys.RunConcurrent(guests, 0); err != nil {
		t.Fatal(err)
	}
	for i, m := range vms {
		if !m.Halted() {
			t.Errorf("vm %d did not halt", i)
		}
	}
	if used := sp.Used(); used != 0 {
		t.Errorf("shared tier holds %d bytes after every process unmapped", used)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinDeterminism(t *testing.T) {
	// A fixed schedule plus fixed guests must give bit-identical aggregate
	// statistics and per-process event logs across runs.
	img := buildPluginHotProgram(t)
	size := maxTraceSize(t, img)
	const procs = 3

	run := func() (RunStats, [][]byte) {
		bufs := make([]*bytes.Buffer, procs)
		logs := make([]*tracelog.Writer, procs)
		for p := 0; p < procs; p++ {
			bufs[p] = &bytes.Buffer{}
			w, err := tracelog.NewWriter(bufs[p], tracelog.Header{Benchmark: "plugin", Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			logs[p] = w
		}
		sys, _ := sharedSystem(t, img, procs, size, nil, logs)
		guests := make([]Guest, procs)
		for i := range guests {
			guests[i] = VMGuest{M: vm.New(img)}
		}
		if err := sys.RunRoundRobin(guests, 32, 900, 0); err != nil {
			t.Fatal(err)
		}
		var agg RunStats
		raw := make([][]byte, procs)
		for i, p := range sys.Procs() {
			agg.Merge(p.Stats())
			if err := logs[i].Flush(); err != nil {
				t.Fatal(err)
			}
			raw[i] = bufs[i].Bytes()
		}
		return agg, raw
	}

	a, alogs := run()
	b, blogs := run()
	if a != b {
		t.Fatalf("nondeterministic aggregate stats:\n%+v\n%+v", a, b)
	}
	for p := range alogs {
		if !bytes.Equal(alogs[p], blogs[p]) {
			t.Errorf("proc %d event log differs between identical runs", p)
		}
		// The v2 log must decode, carry the right process stamps, and
		// register adoptions.
		h, events, err := tracelog.ReadAll(bytes.NewReader(alogs[p]))
		if err != nil {
			t.Fatalf("proc %d log: %v", p, err)
		}
		if h.Procs != procs {
			t.Errorf("proc %d log header procs = %d, want %d", p, h.Procs, procs)
		}
		for _, e := range events {
			if e.Kind != tracelog.KindEnd && e.Proc != p {
				t.Fatalf("proc %d log carries event for proc %d: %+v", p, e.Proc, e)
			}
		}
	}
	if a.SharedAdopted == 0 {
		t.Error("no adoptions in a staggered 3-process run")
	}
}

func TestSingleProcSharedMatchesPlain(t *testing.T) {
	// With one process, the shared tier must behave exactly like a private
	// persistent cache: identical run statistics.
	img := buildPluginHotProgram(t)
	size := maxTraceSize(t, img)
	cfg := core.Config{
		TotalCapacity:    size * 9 / 2,
		NurseryFrac:      1.0 / 3,
		ProbationFrac:    1.0 / 3,
		PersistentFrac:   1.0 / 3,
		PromoteThreshold: 1,
		PromoteOnAccess:  true,
	}

	plain := func() RunStats {
		mgr, err := core.NewGraph(cfg.GraphSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(img, Config{Manager: mgr})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(VMGuest{M: vm.New(img)}, 0); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}()

	shared := func() RunStats {
		sp := core.NewSharedPersistent(uint64(float64(cfg.TotalCapacity)*cfg.PersistentFrac), nil, nil)
		sys := NewSystem(sp)
		mgr, err := core.NewGraphShared(cfg.GraphSpec(), sp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sys.NewProcess(0, img, Config{Manager: mgr})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(VMGuest{M: vm.New(img)}, 0); err != nil {
			t.Fatal(err)
		}
		return p.Stats()
	}()

	if plain != shared {
		t.Fatalf("single-process shared diverges from plain generational:\nplain:  %+v\nshared: %+v", plain, shared)
	}
}

// TestConfigRequiresManager: the engine never builds a manager itself —
// callers build one from a GraphSpec (core.NewGraph, or core.NewGraphShared
// over a system's shared tier) — so a Config without one is rejected.
func TestConfigRequiresManager(t *testing.T) {
	img := buildPluginHotProgram(t)
	if _, err := New(img, Config{}); err == nil {
		t.Error("Config without a Manager should fail")
	}
	if _, err := NewSystem(core.NewSharedPersistent(1<<10, nil, nil)).NewProcess(0, img, Config{}); err == nil {
		t.Error("shared-system process without a Manager should fail")
	}
}

// TestConfigTiersAdaptive runs the engine over a tier graph whose spec
// attaches the adaptive controller: the graph publishes its events to the
// observer it was built with, so applied capacity shifts surface as
// KindResize events during the engine run.
// The guest is driven step-by-step: eight independent hot loops revisited in
// rounds through a cache that holds only a few of their traces, so every
// round churns traces out and back in — the eviction-then-re-access pattern
// the controller's miss attribution feeds on.
func TestConfigTiersAdaptive(t *testing.T) {
	const loops = 8
	b := program.NewBuilder()
	m := b.Module("hot", false)
	for i := 0; i < loops; i++ {
		f, _ := m.Function("loop")
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
		t.Fatal(err)
	}

	// One unbounded pass to learn the total trace footprint.
	drive := func(e *Engine) {
		t.Helper()
		fns := img.Modules[0].Functions
		for round := 0; round < 200; round++ {
			for i := 0; i < loops; i++ {
				a, bb := fns[i].Blocks[0].Addr, fns[i].Blocks[1].Addr
				for j := 0; j < 60; j++ {
					if err := e.Observe(&Step{Block: a}); err != nil {
						t.Fatal(err)
					}
					if err := e.Observe(&Step{Block: bb}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	big, err := New(img, Config{Manager: core.NewUnified(1<<20, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	drive(big)
	traceBytes := big.Stats().TraceBytes
	if traceBytes == 0 {
		t.Fatal("no traces created")
	}

	// A graph holding roughly half the traces, with short controller epochs.
	spec := core.Config{
		TotalCapacity:    traceBytes / 2,
		NurseryFrac:      1.0 / 3,
		ProbationFrac:    1.0 / 3,
		PersistentFrac:   1.0 / 3,
		PromoteThreshold: 1,
		PromoteOnAccess:  true,
	}.GraphSpec()
	spec.Adaptive = &core.AdaptiveConfig{Epoch: 32}
	var resizes int
	mgr, err := core.NewGraph(spec, obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.KindResize {
			resizes++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(img, Config{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	drive(e)
	if e.Stats().Misses == 0 {
		t.Fatal("half-capacity run produced no conflict misses; workload too small to exercise the controller")
	}
	if resizes == 0 {
		t.Error("adaptive controller applied no resizes during the engine run")
	}
}
