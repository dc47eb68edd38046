package dbt

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracelog"
	"repro/internal/vm"
)

// buildPluginHotProgram: main calls plugins 1..n (modules 1..n) in turn, 30
// times (the outer loop stays below the hot threshold), then unloads plugin 1
// and halts with any others still mapped. Each plugin runs two hot
// 60-iteration loops, so it contributes exactly two traces, both from its
// own module.
func buildPluginHotProgram(t *testing.T, n int) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	m := b.Module("main", false)
	var plugins []*program.FuncSym
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("plugin%d", i)
		pb, fn := b.Module(name, true).Function(name)
		for _, r := range []isa.Reg{3, 4} {
			pb.Block()
			pb.I(isa.Inst{Op: isa.OpMovImm, Rd: r, Imm: 0})
			loop := pb.NewBlock()
			pb.Jmp(loop)
			pb.StartBlock(loop)
			pb.I(isa.Inst{Op: isa.OpAddImm, Rd: r, Rs1: r, Imm: 1})
			pb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: r, Imm: 60})
			pb.Jcc(isa.CondLT, loop)
		}
		pb.Block()
		pb.Ret()
		plugins = append(plugins, fn)
	}

	fb, mainFn := m.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 5, Imm: 0})
	outer := fb.NewBlock()
	fb.Jmp(outer)
	fb.StartBlock(outer)
	for _, fn := range plugins {
		fb.Call(fn)
		fb.Block()
	}
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
	sp := core.NewSharedPersistent(10*traceSize, o)
	sys := NewSystem(sp)
	for p := 0; p < procs; p++ {
		var log *tracelog.Writer
		if logs != nil {
			log = logs[p]
		}
		addSharedProcess(t, sys, p, img, oneTraceTiers(traceSize), o, log)
	}
	return sys, sp
}

// thirdsAt1 is the three-tier chain over total in equal thirds, promoting a
// probation trace on its first hit.
func thirdsAt1(total uint64) core.GraphSpec {
	return core.GraphSpec{TotalCapacity: total, Tiers: []core.TierSpec{
		{Frac: 1.0 / 3},
		{Frac: 1.0 / 3, Threshold: 1, PromoteOnAccess: true},
		{Frac: 1.0 / 3},
	}}
}

// oneTraceTiers is sharedSystem's private-tier configuration: a nursery and
// a probation that each hold one trace of traceSize bytes.
func oneTraceTiers(traceSize uint64) core.GraphSpec {
	return thirdsAt1(traceSize * 9 / 2)
}

// addSharedProcess adds process p, with private tiers spec, to a system
// with a shared tier.
func addSharedProcess(t *testing.T, sys *System, p int, img *program.Image, spec core.GraphSpec, o obs.Observer, log *tracelog.Writer) *Process {
	t.Helper()
	mgr, err := core.NewGraphShared(spec, sys.Shared(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sys.NewProcess(p, img, Config{Manager: mgr, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func TestSharedAdoptionAndOwnerAwareUnmap(t *testing.T) {
	img := buildPluginHotProgram(t, 1)
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
	guests := []Guest{&VMGuest{M: vms[0]}, &VMGuest{M: vms[1]}}

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

// The TestSession tests follow a process's session on the shared tier — its
// guest's run, from its first publication to its module unloads — one block
// at a time and check owner counts between steps;
// TestSharedAdoptionAndOwnerAwareUnmap checks only the end of a run.

// stepUntil runs p's guest one block at a time until cond holds after a
// block (nil: never) or the guest finishes. It reports whether cond held.
func stepUntil(t *testing.T, p *Process, g Guest, cond func() bool) bool {
	t.Helper()
	var st Step
	for {
		done, err := p.step(g, &st, 1)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return false
		}
		if cond != nil && cond() {
			return true
		}
	}
}

// residentIDs returns the IDs of the shared tier's resident traces.
func residentIDs(sp *core.SharedPersistent) []uint64 {
	var ids []uint64
	for _, f := range sp.Fragments() {
		ids = append(ids, f.ID)
	}
	return ids
}

// TestSessionPublishAdoptDrain: a published trace gets a nonzero ID and its
// publisher as sole owner; a second process adopts it under that ID and the
// publisher's body, adding an owner; the publisher's unmap leaves it
// resident on the adopter's reference, and the adopter's unmap drains it.
func TestSessionPublishAdoptDrain(t *testing.T) {
	img := buildPluginHotProgram(t, 1)
	sys, sp := sharedSystem(t, img, 2, maxTraceSize(t, img), nil, nil)
	procs := sys.Procs()
	g0, g1 := &VMGuest{M: vm.New(img)}, &VMGuest{M: vm.New(img)}

	if !stepUntil(t, procs[0], g0, func() bool { return sp.Used() > 0 }) {
		t.Fatal("process 0 finished without publishing a trace")
	}
	published := make(map[uint64]*trace.Trace)
	for _, id := range residentIDs(sp) {
		body, ok := procs[0].TraceByID(id)
		if id == 0 || !ok || sp.Owners(id) != 1 {
			t.Fatalf("published trace %d: body known to its publisher %v, %d owners; want a nonzero ID, a body and 1 owner",
				id, ok, sp.Owners(id))
		}
		published[id] = body
	}

	if !stepUntil(t, procs[1], g1, func() bool { return procs[1].Stats().SharedAdopted > 0 }) {
		t.Fatal("process 1 finished without adopting a trace")
	}
	var adopted uint64
	for _, id := range residentIDs(sp) {
		if sp.Owners(id) == 2 {
			if adopted != 0 {
				t.Fatalf("traces %d and %d both have 2 owners after one adoption", adopted, id)
			}
			adopted = id
		}
	}
	body, ok := procs[1].TraceByID(adopted)
	if adopted == 0 || published[adopted] == nil || !ok || body != published[adopted] {
		t.Fatalf("adopted trace %d: published by process 0 %v, adopter runs the publisher's body %v",
			adopted, published[adopted] != nil, ok && body == published[adopted])
	}

	// The publisher's guest unloads the plugin and halts: only its own
	// references drop, so the adopted trace stays on process 1's.
	stepUntil(t, procs[0], g0, nil)
	if !sp.Contains(adopted) || sp.Owners(adopted) != 1 {
		t.Fatalf("after the publisher's unmap, adopted trace %d resident %v with %d owners; want resident with 1",
			adopted, sp.Contains(adopted), sp.Owners(adopted))
	}
	// The adopter unloads it too: last owner, so the tier drains empty.
	stepUntil(t, procs[1], g1, nil)
	if sp.Contains(adopted) || sp.Used() != 0 {
		t.Fatalf("after the last owner's unmap, trace %d resident %v, tier holds %d bytes; want drained",
			adopted, sp.Contains(adopted), sp.Used())
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionKeepWarmSurvivesTeardown: a reference held by an owner that is
// no process — a resident service's keep-warm reference — keeps published
// traces resident after their publisher's guest unloads the module and
// halts, and a process created afterwards adopts them warm.
func TestSessionKeepWarmSurvivesTeardown(t *testing.T) {
	const keepWarm = -1 // no process's ID
	img := buildPluginHotProgram(t, 1)
	size := maxTraceSize(t, img)
	sys, sp := sharedSystem(t, img, 1, size, nil, nil)
	g0 := &VMGuest{M: vm.New(img)}
	if !stepUntil(t, sys.Procs()[0], g0, func() bool { return sp.Used() > 0 }) {
		t.Fatal("process 0 finished without publishing a trace")
	}
	warm := residentIDs(sp)
	// The keep-warm owner takes its reference as a merging promotion of the
	// resident trace, which attaches an owner without counting an adoption.
	for _, f := range sp.Fragments() {
		if err := sp.Promote(keepWarm, f); err != nil || sp.Owners(f.ID) != 2 {
			t.Fatalf("keep-warm promotion of trace %d (err %v) left %d owners, want 2", f.ID, err, sp.Owners(f.ID))
		}
	}
	if n := sp.Stats().Adoptions; n != 0 {
		t.Fatalf("keep-warm attaches counted %d adoptions, want 0", n)
	}

	// Teardown: the publisher unloads the plugin and halts.
	stepUntil(t, sys.Procs()[0], g0, nil)
	if got := residentIDs(sp); !slices.Equal(got, warm) {
		t.Fatalf("resident after teardown: %v, want the kept-warm %v", got, warm)
	}
	for _, id := range warm {
		if n := sp.Owners(id); n != 1 {
			t.Fatalf("kept-warm trace %d has %d owners after teardown, want 1", id, n)
		}
	}

	// A later process adopts every kept-warm trace, then leaves in turn.
	p1 := addSharedProcess(t, sys, 1, img, oneTraceTiers(size), nil, nil)
	g1 := &VMGuest{M: vm.New(img)}
	if !stepUntil(t, p1, g1, func() bool { return p1.Stats().SharedAdopted == uint64(len(warm)) }) {
		t.Fatalf("later process finished having adopted %d traces, want %d", p1.Stats().SharedAdopted, len(warm))
	}
	for _, id := range warm {
		if _, ok := p1.TraceByID(id); !ok || sp.Owners(id) != 2 {
			t.Fatalf("warm trace %d: adopter runs it %v, %d owners; want true, 2", id, ok, sp.Owners(id))
		}
	}
	stepUntil(t, p1, g1, nil)
	for _, id := range warm {
		if !sp.Contains(id) || sp.Owners(id) != 1 {
			t.Fatalf("kept-warm trace %d after the adopter left: resident %v, %d owners; want resident with 1",
				id, sp.Contains(id), sp.Owners(id))
		}
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionLogUnmapReleasesModule: a guest's unload releases only its own
// process's references, and only under the unloaded module. Both processes
// hold the traces process 0 published from plugins 1 and 2; process 0's
// unload of plugin 1 leaves plugin 1's on process 1's reference, process 1's
// unload drains them, and plugin 2's keep both owners throughout.
func TestSessionLogUnmapReleasesModule(t *testing.T) {
	img := buildPluginHotProgram(t, 2)
	size := maxTraceSize(t, img)
	// Of the four traces in rotation, one-trace tiers would push none
	// through to the shared tier: each leaves the probation before it runs
	// again. A probation of four traces holds each until its next run.
	spec := thirdsAt1(size * 9)
	spec.Tiers[0].Frac, spec.Tiers[1].Frac = 1.0/6, 1.0/2
	sp := core.NewSharedPersistent(10*size, nil)
	sys := NewSystem(sp)
	procs := []*Process{addSharedProcess(t, sys, 0, img, spec, nil, nil), addSharedProcess(t, sys, 1, img, spec, nil, nil)}
	g0, g1 := &VMGuest{M: vm.New(img)}, &VMGuest{M: vm.New(img)}

	byModule := func() map[uint16][]uint64 {
		ids := make(map[uint16][]uint64)
		for _, f := range sp.Fragments() {
			ids[f.Module] = append(ids[f.Module], f.ID)
		}
		return ids
	}
	if !stepUntil(t, procs[0], g0, func() bool { m := byModule(); return len(m[1]) > 0 && len(m[2]) > 0 }) {
		t.Fatal("process 0 finished without publishing a trace from each plugin")
	}
	pub := byModule()
	if !stepUntil(t, procs[1], g1, func() bool {
		for _, ids := range pub {
			for _, id := range ids {
				if sp.Owners(id) != 2 {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatal("process 1 finished without adopting every trace process 0 published")
	}

	check := func(step string, want1, want2 int) {
		t.Helper()
		for mod, want := range map[uint16]int{1: want1, 2: want2} {
			for _, id := range pub[mod] {
				if n := sp.Owners(id); n != want || sp.Contains(id) != (want > 0) {
					t.Fatalf("%s: plugin %d's trace %d has %d owners (resident %v), want %d",
						step, mod, id, n, sp.Contains(id), want)
				}
			}
		}
	}
	check("both hold", 2, 2)
	stepUntil(t, procs[0], g0, nil)
	check("process 0 unloaded plugin 1", 1, 2)
	stepUntil(t, procs[1], g1, nil)
	check("process 1 unloaded plugin 1", 0, 2)
	if got := byModule()[1]; len(got) != 0 {
		t.Fatalf("plugin 1's traces %v resident after every process unloaded it", got)
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
	img := buildPluginHotProgram(t, 1)
	size := maxTraceSize(t, img)
	const procs = 4
	sys, sp := sharedSystem(t, img, procs, size, nil, nil)
	guests := make([]Guest, procs)
	vms := make([]*vm.Machine, procs)
	for i := range guests {
		vms[i] = vm.New(img)
		guests[i] = &VMGuest{M: vms[i]}
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
	img := buildPluginHotProgram(t, 1)
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
			guests[i] = &VMGuest{M: vm.New(img)}
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
	img := buildPluginHotProgram(t, 1)
	size := maxTraceSize(t, img)
	spec := thirdsAt1(size * 9 / 2)

	plain := func() RunStats {
		mgr, err := core.NewGraph(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(img, Config{Manager: mgr})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(&VMGuest{M: vm.New(img)}, 0); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}()

	shared := func() RunStats {
		sp := core.NewSharedPersistent(uint64(float64(spec.TotalCapacity)*spec.Tiers[2].Frac), nil)
		sys := NewSystem(sp)
		mgr, err := core.NewGraphShared(spec, sp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sys.NewProcess(0, img, Config{Manager: mgr})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(&VMGuest{M: vm.New(img)}, 0); err != nil {
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
	img := buildPluginHotProgram(t, 1)
	if _, err := New(img, Config{}); err == nil {
		t.Error("Config without a Manager should fail")
	}
	if _, err := NewSystem(core.NewSharedPersistent(1<<10, nil)).NewProcess(0, img, Config{}); err == nil {
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
	drive := func(e *Process) {
		t.Helper()
		fns := img.Modules[0].Functions
		for round := 0; round < 200; round++ {
			for i := 0; i < loops; i++ {
				a, bb := fns[i].Blocks[0].Addr, fns[i].Blocks[1].Addr
				for j := 0; j < 60; j++ {
					if err := e.Observe(runOf(0, a)); err != nil {
						t.Fatal(err)
					}
					if err := e.Observe(runOf(0, bb)); err != nil {
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
	spec := thirdsAt1(traceBytes / 2)
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
