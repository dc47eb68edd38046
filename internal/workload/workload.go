package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/program"
)

// The synthesizer turns a Profile into a program image plus an execution
// plan. A benchmark's code is a set of functions, each a chain of counted
// loops (the shape NET trace selection was designed for). Functions are
// either *core* (visited throughout the run: their traces are the paper's
// long-lived population) or *phase-local* (visited heavily inside one
// activity window and then abandoned: the short-lived population). Phase-
// local code lives in per-phase unloadable modules; when a phase ends, its
// module may be unmapped, forcing the engine to delete the corresponding
// traces (§3.4). Recurring functions span two phases and populate the
// middle of the lifetime distribution; they live in the main module so they
// survive their phase's unload.

// loopSpec describes one counted loop of a function. Loops with at least
// two body blocks carry a rarely taken side path: a conditional exit out of
// the hot path that rejoins before the tail. Side paths are what make
// execution leave and re-enter traces through the dispatcher, as real
// workloads constantly do.
type loopSpec struct {
	blocks    []uint64 // head, bodies..., tail: hot path in iteration order
	meanIters int
	sideIdx   int    // index in blocks after which the side block runs (0 = none)
	side      uint64 // side block address (0 = none)
}

// sideProb is the per-iteration probability of taking a loop's side path.
const sideProb = 0.06

// fnSpec describes one synthesized function and its walk template.
type fnSpec struct {
	name    string
	module  program.ModuleID
	entry   uint64
	ret     uint64
	loops   []loopSpec
	recurs  bool
	stepsPV int // expected guest blocks per visit
}

// Bench is a synthesized benchmark: an image plus the plan its driver
// follows.
type Bench struct {
	Profile Profile
	Image   *program.Image

	core        []*fnSpec
	phases      [][]*fnSpec        // phase-local functions per phase
	phaseModule []program.ModuleID // the unloadable module of each phase
	unloadAtEnd []bool             // whether that module unmaps at phase end
	phaseBudget []uint64           // guest blocks per phase
	totalBudget uint64
}

// TotalBudget returns the planned guest-block count for a full run.
func (b *Bench) TotalBudget() uint64 { return b.totalBudget }

// NumFunctions returns the synthesized function count (for reporting).
func (b *Bench) NumFunctions() int {
	n := len(b.core)
	for _, ph := range b.phases {
		n += len(ph)
	}
	return n
}

// traceExpansionEstimate converts the trace-cache target (Figure 1's
// per-benchmark bar) into a code-footprint target: the unbounded trace
// cache holds roughly 1.5x the static code it covers (loop bodies plus
// prefixes and exit stubs). The full code cache (basic blocks + traces)
// lands near Figure 2's ~500% of the footprint.
const traceExpansionEstimate = 1.5

// warmupVisits is how many times the driver touches every core function
// before phase 0 begins (application startup), which puts the long-lived
// traces in place early — their lifetimes then span the run, as Figure 6
// requires.
const warmupVisits = 3

// Synthesize builds the benchmark for a profile.
func Synthesize(p Profile) (*Bench, error) {
	if p.TargetCacheKB <= 0 || p.Phases <= 0 {
		return nil, fmt.Errorf("workload: profile %q needs a cache target and phases", p.Name)
	}
	r := rand.New(rand.NewSource(p.Seed))
	footprint := p.TargetCacheKB * 1024 / traceExpansionEstimate
	coreTarget := footprint * p.CoreFrac
	perPhase := (footprint - coreTarget) / float64(p.Phases)

	bench := &Bench{Profile: p}
	builder := program.NewBuilder()
	main := builder.Module(p.Name+".exe", false)

	// Core functions live in the main module.
	var coreBytes int
	var entrySym *program.FuncSym
	for i := 0; float64(coreBytes) < coreTarget || i == 0; i++ {
		fn, sym, bytes := synthFunction(builder, main, fmt.Sprintf("core%d", i), r)
		if entrySym == nil {
			entrySym = sym
		}
		bench.core = append(bench.core, fn)
		coreBytes += bytes
	}
	builder.SetEntry(entrySym)

	// Phase-local functions, one unloadable module per phase.
	bench.phases = make([][]*fnSpec, p.Phases)
	phaseModNames := make([]string, p.Phases)
	for ph := 0; ph < p.Phases; ph++ {
		name := fmt.Sprintf("%s.phase%02d.dll", p.Name, ph)
		phaseModNames[ph] = name
		mod := builder.Module(name, true)
		bytes := 0
		for i := 0; float64(bytes) < perPhase || i == 0; i++ {
			recurs := r.Float64() < p.RecurFrac && ph+1 < p.Phases
			target := mod
			if recurs {
				target = main
			}
			fn, _, fb := synthFunction(builder, target, fmt.Sprintf("p%02d_f%d", ph, i), r)
			fn.recurs = recurs
			bench.phases[ph] = append(bench.phases[ph], fn)
			bytes += fb
		}
	}

	img, err := builder.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: building %s: %w", p.Name, err)
	}
	bench.Image = img

	bench.phaseModule = make([]program.ModuleID, p.Phases)
	bench.unloadAtEnd = make([]bool, p.Phases)
	for ph := 0; ph < p.Phases; ph++ {
		found := false
		for _, m := range img.Modules {
			if m.Name == phaseModNames[ph] {
				bench.phaseModule[ph] = m.ID
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("workload: phase module %s missing", phaseModNames[ph])
		}
		bench.unloadAtEnd[ph] = r.Float64() < p.UnloadProb
	}

	// Resolve walk templates and compute per-phase budgets. Functions are
	// found through a name index built once; like FindFunction, it keeps
	// the first function of each name.
	byName := make(map[string]*program.Function, bench.NumFunctions())
	for _, m := range img.Modules {
		for _, f := range m.Functions {
			if _, dup := byName[f.Name]; !dup {
				byName[f.Name] = f
			}
		}
	}
	var sumCost, nFns int
	resolve := func(fns []*fnSpec) error {
		for _, fn := range fns {
			if err := fn.resolve(byName); err != nil {
				return err
			}
			sumCost += fn.stepsPV
			nFns++
		}
		return nil
	}
	if err := resolve(bench.core); err != nil {
		return nil, err
	}
	for ph := range bench.phases {
		if err := resolve(bench.phases[ph]); err != nil {
			return nil, err
		}
	}
	avgVisit := sumCost / nFns

	// Budget: each phase-local function should be visited ~visitTarget
	// times inside its activity window — enough to cross the trace
	// threshold (50 head executions) and then exercise the trace — with
	// core visits riding along via HotAccessFrac.
	const visitTarget = 6
	bench.phaseBudget = make([]uint64, p.Phases)
	for ph := range bench.phases {
		n := len(bench.phases[ph])
		budget := uint64(float64(n*visitTarget*avgVisit) / (1 - p.HotAccessFrac))
		if min := uint64(20 * avgVisit); budget < min {
			budget = min
		}
		bench.phaseBudget[ph] = budget
		bench.totalBudget += budget
	}
	// Core functions must keep being revisited to the end of the run for
	// their traces to register as long-lived; if the phase budgets are too
	// small to give every core function ~minCoreVisits visits, stretch all
	// phases proportionally.
	const minCoreVisits = 35
	planned := p.HotAccessFrac * float64(bench.totalBudget) / float64(avgVisit)
	needed := float64(minCoreVisits * len(bench.core))
	if planned < needed {
		scale := needed / planned
		bench.totalBudget = 0
		for ph := range bench.phaseBudget {
			bench.phaseBudget[ph] = uint64(float64(bench.phaseBudget[ph]) * scale)
			bench.totalBudget += bench.phaseBudget[ph]
		}
	}

	// The warmup pass (application startup) adds its steps to the plan.
	for _, fn := range bench.core {
		bench.totalBudget += uint64(warmupVisits * fn.stepsPV)
	}
	return bench, nil
}

// resolve fills in the runtime addresses of a function's walk template.
// Layout order inside a function is emission order: entry block, then per
// loop [head, bodies..., tail], then the return block.
func (fn *fnSpec) resolve(byName map[string]*program.Function) error {
	f, ok := byName[fn.name]
	if !ok {
		return fmt.Errorf("workload: function %s missing from image", fn.name)
	}
	fn.module = f.Module
	fn.entry = f.Entry
	idx := 1
	steps := 1
	for li := range fn.loops {
		l := &fn.loops[li]
		for j := range l.blocks {
			if idx >= len(f.Blocks) {
				return fmt.Errorf("workload: function %s ran out of blocks", fn.name)
			}
			l.blocks[j] = f.Blocks[idx].Addr
			idx++
		}
		if l.sideIdx > 0 {
			if idx >= len(f.Blocks) {
				return fmt.Errorf("workload: function %s missing side block", fn.name)
			}
			l.side = f.Blocks[idx].Addr
			idx++
		}
		steps += l.meanIters*len(l.blocks) + 1
	}
	if idx != len(f.Blocks)-1 {
		return fmt.Errorf("workload: function %s has %d blocks, walker expects %d", fn.name, len(f.Blocks), idx+1)
	}
	fn.ret = f.Blocks[idx].Addr
	fn.stepsPV = steps + 1
	return nil
}

// synthFunction emits one function: an entry block, 1-3 counted loops (a
// top guard, a straight body chain, and a backward tail jump), and a return
// block. It returns the spec, the function symbol, and the function's
// approximate code bytes.
func synthFunction(b *program.Builder, mod *program.ModuleBuilder, name string, r *rand.Rand) (*fnSpec, *program.FuncSym, int) {
	fb, sym := mod.Function(name)
	fn := &fnSpec{name: name}
	bytes := 0

	emit := func(in isa.Inst) {
		fb.I(in)
		bytes += in.Size()
	}
	emitInsts := func(n int) {
		for i := 0; i < n; i++ {
			switch r.Intn(5) {
			case 0:
				emit(isa.Inst{Op: isa.OpAdd, Rd: isa.Reg(4 + r.Intn(10)), Rs1: isa.Reg(r.Intn(14)), Rs2: isa.Reg(r.Intn(14))})
			case 1:
				emit(isa.Inst{Op: isa.OpAddImm, Rd: isa.Reg(4 + r.Intn(10)), Rs1: isa.Reg(r.Intn(14)), Imm: int64(r.Intn(100))})
			case 2:
				emit(isa.Inst{Op: isa.OpLoad, Rd: isa.Reg(4 + r.Intn(10)), Rs1: isa.Reg(r.Intn(14)), Imm: int64(r.Intn(64) * 8)})
			case 3:
				emit(isa.Inst{Op: isa.OpStore, Rs1: isa.Reg(r.Intn(14)), Rs2: isa.Reg(r.Intn(14)), Imm: int64(r.Intn(64) * 8)})
			default:
				emit(isa.Inst{Op: isa.OpXor, Rd: isa.Reg(4 + r.Intn(10)), Rs1: isa.Reg(r.Intn(14)), Rs2: isa.Reg(r.Intn(14))})
			}
		}
	}

	nLoops := 1 + r.Intn(3)
	heads := make([]program.Label, nLoops)
	for i := range heads {
		heads[i] = fb.NewBlock()
	}
	retLabel := fb.NewBlock()

	// Entry block.
	fb.Block()
	emitInsts(1 + r.Intn(3))
	fb.Jmp(heads[0])
	bytes += 8

	for li := 0; li < nLoops; li++ {
		next := retLabel
		if li+1 < nLoops {
			next = heads[li+1]
		}
		nBody := 1 + r.Intn(4)
		spec := loopSpec{
			blocks:    make([]uint64, nBody+2),
			meanIters: 6 + r.Intn(25),
		}
		bodyLabels := make([]program.Label, nBody)
		for j := range bodyLabels {
			bodyLabels[j] = fb.NewBlock()
		}
		tail := fb.NewBlock()
		sideAfter := -1
		var sideLabel program.Label
		if nBody >= 2 {
			sideAfter = r.Intn(nBody - 1)
			sideLabel = fb.NewBlock()
			spec.sideIdx = 1 + sideAfter // position of that body block in spec.blocks
		}

		// Head: loop guard at the top, taken when the loop is done; the
		// fall-through is the first body block.
		fb.StartBlock(heads[li])
		emitInsts(1 + r.Intn(3))
		emit(isa.Inst{Op: isa.OpCmpImm, Rs1: isa.Reg(1 + li%3), Imm: int64(spec.meanIters)})
		fb.Jcc(isa.CondGE, next)
		bytes += 8

		// Body chain. The side-exit block ends in a conditional branch to
		// the side path, which rejoins at the following body block.
		for j := 0; j < nBody; j++ {
			fb.StartBlock(bodyLabels[j])
			emitInsts(2 + r.Intn(4))
			if j == sideAfter {
				fb.Jcc(isa.CondNE, sideLabel) // falls through to body j+1
			} else {
				nxt := tail
				if j+1 < nBody {
					nxt = bodyLabels[j+1]
				}
				fb.Jmp(nxt)
			}
			bytes += 8
		}

		// Tail: backward jump to the head.
		fb.StartBlock(tail)
		emitInsts(1 + r.Intn(2))
		fb.Jmp(heads[li])
		bytes += 8

		// Side path, laid out after the hot path.
		if sideAfter >= 0 {
			fb.StartBlock(sideLabel)
			emitInsts(1 + r.Intn(3))
			fb.Jmp(bodyLabels[sideAfter+1])
			bytes += 8
		}

		fn.loops = append(fn.loops, spec)
	}

	fb.StartBlock(retLabel)
	fb.Ret()
	bytes += 2
	return fn, sym, bytes
}

// activityWindow describes when a phase-local function is eligible for
// visits, as fractions of its phase's step budget. Recurring functions get
// a second window at the start of the following phase.
const windowFrac = 0.30

func fnWindow(j, n int) (start, end float64) {
	start = float64(j) / float64(n+1)
	return start, start + windowFrac
}

// rng derives a deterministic driver seed from the profile seed.
func (b *Bench) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(b.Profile.Seed*7919 + offset))
}
