package workload

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
)

// tiny returns a fast profile for unit tests.
func tiny() Profile {
	return Profile{
		Name:          "tiny",
		Suite:         SuiteInteractive,
		Description:   "test workload",
		DurationSec:   10,
		TargetCacheKB: 40,
		Phases:        4,
		CoreFrac:      0.35,
		HotAccessFrac: 0.5,
		UnloadProb:    1.0,
		RecurFrac:     0.2,
		Seed:          99,
	}
}

func TestProfilesComplete(t *testing.T) {
	spec := SPEC2000()
	inter := Interactive()
	if len(spec) != 20 {
		t.Errorf("SPEC2000 has %d profiles, want 20", len(spec))
	}
	if len(inter) != 12 {
		t.Errorf("Interactive has %d profiles, want 12 (Table 1)", len(inter))
	}
	if len(All()) != 32 {
		t.Errorf("All has %d profiles", len(All()))
	}
	names := map[string]bool{}
	for _, p := range All() {
		if names[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
		if p.DurationSec <= 0 || p.TargetCacheKB <= 0 || p.Phases <= 0 {
			t.Errorf("%s has missing basics: %+v", p.Name, p)
		}
		if p.CoreFrac <= 0 || p.CoreFrac >= 1 || p.HotAccessFrac <= 0 || p.HotAccessFrac >= 1 {
			t.Errorf("%s has out-of-range fractions", p.Name)
		}
	}
}

// Table 1 of the paper: exact durations and descriptions.
func TestTable1Exact(t *testing.T) {
	want := map[string]struct {
		dur  float64
		desc string
	}{
		"access":     {202, "Database App"},
		"acroread":   {376, "PDF Viewer"},
		"defrag":     {46, "System Util"},
		"excel":      {208, "Spreadsheet App"},
		"iexplore":   {247, "Web Browser"},
		"mpeg":       {257, "Media Player"},
		"outlook":    {196, "E-Mail App"},
		"pinball":    {372, "3D Game Demo"},
		"powerpoint": {173, "Presentation"},
		"solitaire":  {335, "Game"},
		"winzip":     {92, "Compression"},
		"word":       {212, "Word Processor"},
	}
	inter := Interactive()
	if len(inter) != len(want) {
		t.Fatalf("interactive count %d", len(inter))
	}
	for _, p := range inter {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected benchmark %s", p.Name)
			continue
		}
		if p.DurationSec != w.dur {
			t.Errorf("%s duration = %v, Table 1 says %v", p.Name, p.DurationSec, w.dur)
		}
		if p.Description != w.desc {
			t.Errorf("%s description = %q, Table 1 says %q", p.Name, p.Description, w.desc)
		}
	}
}

func TestPaperStatedCacheTargets(t *testing.T) {
	// Values the paper states explicitly.
	cases := map[string]float64{"gcc": 4300, "vortex": 1600, "word": 34200}
	for name, kb := range cases {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if p.TargetCacheKB != kb {
			t.Errorf("%s target = %v KB, paper says %v", name, p.TargetCacheKB, kb)
		}
	}
}

func TestByNameAndScaled(t *testing.T) {
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName(nonexistent) succeeded")
	}
	p, _ := ByName("gzip")
	q := p.Scaled(0.5)
	if q.TargetCacheKB != p.TargetCacheKB/2 || q.DurationSec != p.DurationSec {
		t.Error("Scaled wrong")
	}
	if p.DurationMicros() != uint64(p.DurationSec*1e6) {
		t.Error("DurationMicros wrong")
	}
}

func TestSuiteString(t *testing.T) {
	for _, s := range []Suite{SuiteSpecInt, SuiteSpecFP, SuiteInteractive} {
		if s.String() == "" {
			t.Error("empty suite name")
		}
	}
	if Suite(9).String() != "suite(9)" {
		t.Error("unknown suite string")
	}
}

func TestSynthesizeValidImage(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Image.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.NumFunctions() == 0 || b.TotalBudget() == 0 {
		t.Error("empty bench")
	}
	// One main module + one module per phase.
	if len(b.Image.Modules) != 1+tiny().Phases {
		t.Errorf("modules = %d", len(b.Image.Modules))
	}
	if b.Image.Modules[0].Unloadable {
		t.Error("main module must not be unloadable")
	}
	for _, m := range b.Image.Modules[1:] {
		if !m.Unloadable {
			t.Errorf("phase module %s not unloadable", m.Name)
		}
	}
	// Footprint should be near the target/traceExpansionEstimate.
	target := tiny().TargetCacheKB * 1024 / traceExpansionEstimate
	foot := float64(b.Image.Footprint())
	if foot < target*0.8 || foot > target*1.6 {
		t.Errorf("footprint %v, target %v", foot, target)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(Profile{Name: "x"}); err == nil {
		t.Error("empty profile accepted")
	}
}

// TestDriverDeterminism also checks Next's overwrite contract: d1 writes
// into a Step poisoned in every field before each call, d2 into a fresh one,
// and the two must match field for field. The poison slices must come back
// untouched: a guest never writes into the slices it finds in the Step.
func TestDriverDeterminism(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := b.NewDriver(), b.NewDriver()
	poison := func() []uint64 { return []uint64{^uint64(0), ^uint64(0)} }
	for i := 0; ; i++ {
		pb, pt := poison(), poison()
		s1 := dbt.Step{Blocks: pb, Times: pt, Thread: -1,
			Loaded: []program.ModuleID{99}, Unloaded: []program.ModuleID{99}, Done: true}
		var s2 dbt.Step
		err1 := d1.Next(&s1, math.MaxInt)
		err2 := d2.Next(&s2, math.MaxInt)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("run %d diverges: %+v vs %+v", i, s1, s2)
		}
		if !reflect.DeepEqual(pb, poison()) || !reflect.DeepEqual(pt, poison()) {
			t.Fatalf("run %d: Next wrote into the slices it found in the Step", i)
		}
		if s1.Done {
			break
		}
	}
}

// TestDriverEmitsValidControlFlow checks that every consecutive pair of
// blocks in the driver's stream is a legal CFG edge (branch target or
// fall-through) or a visit boundary (after a return).
func TestDriverEmitsValidControlFlow(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	d := b.NewDriver()
	var prev *program.Block
	steps := 0
	var s dbt.Step
	for {
		if err := d.Next(&s, math.MaxInt); err != nil {
			t.Fatal(err)
		}
		if s.Done {
			break
		}
		for _, addr := range s.Blocks {
			blk, ok := b.Image.Block(addr)
			if !ok {
				t.Fatalf("driver emitted unknown block %#x", addr)
			}
			if prev != nil {
				last := prev.Last()
				legal := false
				switch {
				case last.IsDirect() && last.Target == blk.Addr:
					legal = true
				case last.IsConditional() && prev.FallThrough() == blk.Addr:
					legal = true
				case last.IsIndirect():
					legal = true // returns end a visit; any next block is fine
				case last.Op.Size() > 0 && prev.FallThrough() == blk.Addr:
					legal = true
				}
				if !legal {
					t.Fatalf("illegal edge %#x (%s) -> %#x", prev.Addr, last, blk.Addr)
				}
			}
			prev = blk
			steps++
		}
		if steps > 3_000_000 {
			t.Fatal("driver did not terminate")
		}
	}
	if steps == 0 {
		t.Fatal("driver produced no steps")
	}
	// Budget should be in the right ballpark.
	if uint64(steps) < b.TotalBudget()/2 {
		t.Errorf("steps %d far below plan %d", steps, b.TotalBudget())
	}
}

// TestDriverTimeMonotonicAndBounded checks the time of every block of every
// run, on a four-thread driver whose runs are cut at time slices as well as
// at walk ends.
func TestDriverTimeMonotonicAndBounded(t *testing.T) {
	for _, threads := range []int{1, 4} {
		p := tiny()
		p.Threads = threads
		b, err := Synthesize(p)
		if err != nil {
			t.Fatal(err)
		}
		d := b.NewDriver()
		var lastT uint64
		var s dbt.Step
		for {
			if err := d.Next(&s, math.MaxInt); err != nil {
				t.Fatal(err)
			}
			if s.Done {
				break
			}
			if len(s.Times) != len(s.Blocks) || len(s.Blocks) == 0 {
				t.Fatalf("threads %d: run of %d blocks has %d times", threads, len(s.Blocks), len(s.Times))
			}
			for _, tm := range s.Times {
				if tm < lastT {
					t.Fatalf("threads %d: time went backwards: %d after %d", threads, tm, lastT)
				}
				lastT = tm
			}
		}
		if lastT > p.DurationMicros() {
			t.Errorf("threads %d: final time %d exceeds duration %d", threads, lastT, p.DurationMicros())
		}
		if lastT < p.DurationMicros()/2 {
			t.Errorf("threads %d: final time %d far below duration %d", threads, lastT, p.DurationMicros())
		}
	}
}

func TestDriverUnloadsModules(t *testing.T) {
	b, err := Synthesize(tiny()) // UnloadProb = 1: every phase module unloads
	if err != nil {
		t.Fatal(err)
	}
	d := b.NewDriver()
	unloaded := map[program.ModuleID]bool{}
	var s dbt.Step
	for {
		if err := d.Next(&s, math.MaxInt); err != nil {
			t.Fatal(err)
		}
		if s.Done {
			break
		}
		for _, m := range s.Unloaded {
			unloaded[m] = true
		}
		for _, addr := range s.Blocks {
			if blk, ok := b.Image.Block(addr); ok && unloaded[blk.Module] {
				t.Fatalf("driver executed unloaded module %d", blk.Module)
			}
		}
	}
	// All phase modules except possibly the last must have been unloaded.
	if len(unloaded) < tiny().Phases-1 {
		t.Errorf("unloaded %d modules, want >= %d", len(unloaded), tiny().Phases-1)
	}
}

// TestEndToEndShape runs the tiny benchmark through the full engine and
// checks the emergent properties the calibration relies on: traces are
// created, lifetimes are U-shaped, and unloads delete trace bytes.
func TestEndToEndShape(t *testing.T) {
	b, err := Synthesize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	lt := stats.NewLifetimes()
	mgr := core.NewUnified(1<<40, nil, nil)
	e, err := dbt.New(b.Image, dbt.Config{Manager: mgr, Lifetimes: lt})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(b.NewDriver(), 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesCreated < 20 {
		t.Fatalf("only %d traces created", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("unbounded run had %d misses", s.Misses)
	}
	if s.UnmappedTraces == 0 || s.UnmappedBytes == 0 {
		t.Error("no unmap deletions despite UnloadProb=1")
	}
	if s.Accesses < s.TracesCreated {
		t.Errorf("accesses %d < creations %d", s.Accesses, s.TracesCreated)
	}
	short, mid, long := lt.Fractions(float64(s.EndTime), 0.2, 0.8)
	if short+long <= mid {
		t.Errorf("lifetimes not U-shaped: short=%.2f mid=%.2f long=%.2f", short, mid, long)
	}
	if long == 0 {
		t.Error("no long-lived traces")
	}
	if short == 0 {
		t.Error("no short-lived traces")
	}
	// Code expansion in the broad vicinity of the paper's ~500%.
	exp := float64(s.PeakCacheBytes) / float64(b.Image.Footprint())
	if exp < 2.5 || exp > 9 {
		t.Errorf("code expansion %.1fx outside plausible range", exp)
	}
}

// TestMultithreadedDriver checks per-thread control flow: each block must
// follow the previous block of the same thread along a direct branch, a
// conditional fall-through or a return (a visit boundary). A run that
// handed one thread's blocks to another would break a walk here. A phase
// unload clears every walk, so the step carrying it resets every thread.
func TestMultithreadedDriver(t *testing.T) {
	p := tiny()
	p.Threads = 3
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	d := b.NewDriver()
	unloaded := map[program.ModuleID]bool{}
	threadsSeen := map[int]bool{}
	prev := map[int]*program.Block{}
	steps := 0
	var s dbt.Step
	for {
		if err := d.Next(&s, math.MaxInt); err != nil {
			t.Fatal(err)
		}
		if s.Done {
			break
		}
		threadsSeen[s.Thread] = true
		for _, m := range s.Unloaded {
			unloaded[m] = true
		}
		if len(s.Unloaded) > 0 {
			clear(prev)
		}
		for _, addr := range s.Blocks {
			blk, ok := b.Image.Block(addr)
			if !ok {
				t.Fatalf("unknown block %#x", addr)
			}
			if unloaded[blk.Module] {
				t.Fatalf("thread %d executed unloaded module %d", s.Thread, blk.Module)
			}
			if p := prev[s.Thread]; p != nil {
				last := p.Last()
				legal := last.Op == isa.OpRet ||
					(last.IsDirect() && last.Target == blk.Addr) ||
					(last.IsConditional() && p.FallThrough() == blk.Addr)
				if !legal {
					t.Fatalf("thread %d: illegal edge %#x (%s) -> %#x", s.Thread, p.Addr, last, blk.Addr)
				}
			}
			prev[s.Thread] = blk
			steps++
		}
		if steps > 5_000_000 {
			t.Fatal("driver did not terminate")
		}
	}
	if len(threadsSeen) != 3 {
		t.Errorf("threads seen = %v, want 3", threadsSeen)
	}
}

func TestMultithreadedEngineRun(t *testing.T) {
	p := tiny()
	p.Threads = 4
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewUnified(1<<40, nil, nil)
	e, err := dbt.New(b.Image, dbt.Config{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(b.NewDriver(), 0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesCreated < 20 {
		t.Fatalf("traces created = %d", s.TracesCreated)
	}
	if s.Misses != 0 {
		t.Errorf("unbounded multithreaded run had %d misses", s.Misses)
	}
	if s.Accesses == 0 || s.InTraceSteps == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSingleThreadUnchangedByThreadField(t *testing.T) {
	// Threads=1 must produce the identical step stream as the default, so
	// the calibrated profiles are unaffected by the threading extension.
	p1 := tiny()
	p2 := tiny()
	p2.Threads = 1
	b1, err := Synthesize(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Synthesize(p2)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := b1.NewDriver(), b2.NewDriver()
	var s1, s2 dbt.Step
	for i := 0; i < 20000; i++ {
		d1.Next(&s1, math.MaxInt)
		d2.Next(&s2, math.MaxInt)
		if !slices.Equal(s1.Blocks, s2.Blocks) || s1.Done != s2.Done || s1.Thread != s2.Thread {
			t.Fatalf("run %d diverges: %+v vs %+v", i, s1, s2)
		}
		if s1.Done {
			break
		}
	}
}

func TestMultithreadedDriverDeterminism(t *testing.T) {
	p := tiny()
	p.Threads = 3
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := b.NewDriver(), b.NewDriver()
	var s1, s2 dbt.Step
	for i := 0; i < 30000; i++ {
		d1.Next(&s1, math.MaxInt)
		d2.Next(&s2, math.MaxInt)
		if !slices.Equal(s1.Blocks, s2.Blocks) || s1.Thread != s2.Thread || s1.Done != s2.Done {
			t.Fatalf("run %d diverges: %+v vs %+v", i, s1, s2)
		}
		if s1.Done {
			break
		}
	}
}
