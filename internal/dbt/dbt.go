// Package dbt is the dynamic-optimizer engine: the piece that stands in for
// DynamoRIO in this reproduction. It observes a guest's execution block by
// block, copies cold code into the basic-block cache, counts trace heads,
// records hot paths with NET trace selection, materializes superblocks into
// the trace cache under a pluggable global cache manager (unified or
// generational), models trace linking, reacts to module unloads with
// program-forced evictions, and emits the verbose cache-event log that the
// replay simulator consumes.
package dbt

import (
	"fmt"
	"math"

	"repro/internal/bbcache"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/linker"
	"repro/internal/opt"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// Step is one run of guest execution: consecutive basic blocks of one
// thread, plus any module mapping changes that take effect before the first
// of them.
type Step struct {
	// Blocks holds the run's block addresses in execution order, and
	// Times[i] is the virtual time of Blocks[i], in microseconds since the
	// start of the run. Both may alias guest-owned memory: they stay valid
	// only until that guest's next Next call.
	Blocks   []uint64
	Times    []uint64
	Thread   int // guest thread executing the run (single-threaded guests use 0)
	Loaded   []program.ModuleID
	Unloaded []program.ModuleID
	Done     bool
}

// Guest is a program under the engine's control. Implementations include
// the reference interpreter (vm) and the synthetic workload driver
// (workload).
type Guest interface {
	// Image returns the guest's program image.
	Image() *program.Image
	// Next executes a run of at most max (>= 1) basic blocks of one thread
	// and describes it in *st, which the engine owns and reuses for every
	// call. On success Next must overwrite every field of *st: RunRoundRobin
	// passes one Step to all its guests, so a field left over from another
	// guest's run (a stale Unloaded would unmap a module in the wrong
	// process) corrupts the run. For the same reason a guest never writes
	// into the slices it finds in *st; it points Blocks and Times at memory
	// of its own. When execution has finished it sets Done.
	Next(st *Step, max int) error
}

// Config parameterizes the engine.
type Config struct {
	// Manager is the trace-cache manager (required): a core.NewGraph in
	// single-process systems, a core.NewGraphShared over the system's shared
	// tier in multi-process ones.
	Manager *core.Graph
	// HotThreshold is the trace creation threshold (default 50, DynamoRIO's
	// value per §4.1).
	HotThreshold uint64
	// MaxTraceBlocks bounds trace length (default trace.DefaultMaxBlocks).
	MaxTraceBlocks int
	// Log, when non-nil, receives the cache event stream.
	Log *tracelog.Writer
	// Lifetimes, when non-nil, records trace first/last access times.
	Lifetimes *stats.Lifetimes
	// ExceptionInterval, when non-zero, simulates the paper's §4.2
	// undeletable-trace scenario: every ExceptionInterval-th trace access
	// raises an exception inside the trace, pinning it until the handler
	// completes ExceptionPinAccesses accesses later. Pinned traces cannot
	// be evicted; the pseudo-circular sweep resets past them.
	ExceptionInterval uint64
	// ExceptionPinAccesses is how many subsequent trace accesses the pin
	// lasts (default 32).
	ExceptionPinAccesses uint64
	// Optimize runs the straight-line trace optimizer (internal/opt) on
	// every materialized superblock, shrinking trace bodies before they
	// enter the cache.
	Optimize bool
	// SlowDispatch forces the engine's original map-based dispatch path
	// instead of the dense-index fast path, and observes every block of a
	// run one at a time instead of following trace bodies by address: the
	// reference the fast paths are checked against. The two must produce
	// identical run statistics and event streams; the equivalence tests and
	// the slow dispatch benchmark set it.
	SlowDispatch bool
}

// RunStats aggregates one engine run.
type RunStats struct {
	Blocks       uint64 // guest basic blocks executed
	GuestInstrs  uint64 // guest instructions executed
	Dispatches   uint64 // blocks handled by the dispatcher (not inside traces)
	InTraceSteps uint64 // blocks executed inside trace bodies

	BBCopied uint64 // blocks copied into the basic-block cache
	BBBytes  uint64 // final basic-block cache size

	Exceptions uint64 // simulated exceptions (traces pinned undeletable)

	OptimizedInsts uint64 // instructions removed/folded by the trace optimizer
	OptimizedBytes uint64 // trace bytes saved by the optimizer

	LinksCreated uint64 // direct trace-to-trace links patched in
	LinksBroken  uint64 // links severed by evictions and unmaps

	TracesCreated    uint64
	SharedAdopted    uint64 // traces adopted from the shared persistent tier instead of generated
	TraceBytes       uint64 // bytes of traces created (first generations only)
	Accesses         uint64 // dispatcher entries into generated traces
	Hits             uint64
	Misses           uint64
	Regens           uint64 // trace re-generations after conflict misses
	UnmappedTraces   uint64 // traces force-deleted by module unloads
	UnmappedBytes    uint64
	PeakCacheBytes   uint64 // peak of bb-cache + trace-cache occupancy
	FinalCacheBytes  uint64 // bb-cache + trace-cache occupancy at end
	RecordingAborted uint64 // recordings abandoned by module unloads
	EndTime          uint64 // virtual time at the end of the run
}

// MissRate returns misses per trace access.
func (s RunStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Process is the per-process front-end of a dbt.System: it owns one guest's
// execution state — basic-block cache, head counters, NET recording, link
// table, inline dispatch caches, and (under a generational manager) the
// process-private nursery and probation tiers — while trace identity and the
// shared persistent tier live in the System behind it. A single-process
// system (dbt.New) is one Process over a System with no shared tier.
type Process struct {
	id  int
	sys *System

	cfg Config
	acc *costmodel.Accum

	img    *program.Image
	bb     *bbcache.Cache
	heads  *bbcache.HeadTable
	traces map[uint64]*trace.Trace // by trace ID
	byHead map[uint64]*trace.Trace // generated trace for each head address
	byMod  map[program.ModuleID][]uint64

	// Dense dispatch tables, indexed by program.Block.Index. They mirror the
	// maps above (which stay authoritative and always maintained, so the
	// SlowDispatch path and the preload/unload slow paths keep working):
	// traceAt[i] is the generated trace whose head is block i, headAt[i] is
	// block i's trace-head entry, bbIn[i] reports bb-cache residency. slow
	// selects which side the per-step reads use.
	slow    bool
	traceAt []*trace.Trace
	headAt  []*bbcache.Head
	bbIn    []bool

	// isHeadFn is the recorder's head-stop predicate, hoisted here so record
	// does not allocate a closure per recorded block.
	isHeadFn func(uint64) bool

	// threads holds each guest thread's execution context; caches are
	// shared (the engine is single-goroutine: guest threads interleave,
	// they do not run in parallel here). threadList is the dense fast path
	// for the small thread IDs guests actually use.
	threads    map[int]*threadCtx
	threadList []*threadCtx
	cur        *threadCtx

	now   uint64
	stats RunStats

	// Exception simulation: the currently pinned trace and the access
	// count at which it unpins.
	pinnedTrace uint64
	unpinAt     uint64

	links *linker.Table
}

// threadCtx is one guest thread's translation state: where it is inside a
// trace, what it is recording, and its linking candidate.
type threadCtx struct {
	inTrace   *trace.Trace
	traceIdx  int
	recording *trace.Recorder
	recHead   uint64
	prev      *program.Block
	// exitedTrace is the trace whose body execution just left, eligible to
	// be direct-linked to the next trace this thread enters.
	exitedTrace uint64
	// Inline cache: the last head this thread dispatched to and the trace it
	// entered there. Steady-state loops re-dispatch to the same head, so this
	// turns the common dispatch into one compare. Invalidated on unload.
	icHead  uint64
	icTrace *trace.Trace
}

// New creates a single-process engine for the guest's image: one Process
// over a fresh System with no shared persistent tier. Multi-process systems
// construct a System explicitly and call NewProcess on it.
func New(img *program.Image, cfg Config) (*Process, error) {
	return NewSystem(nil).NewProcess(0, img, cfg)
}

// Overhead returns the engine's cost accumulator.
func (e *Process) Overhead() *costmodel.Accum { return e.acc }

// Stats returns the current run statistics.
func (e *Process) Stats() RunStats {
	s := e.stats
	s.BBBytes = e.bb.Bytes()
	s.FinalCacheBytes = e.bb.Bytes() + e.cfg.Manager.Used()
	s.EndTime = e.now
	return s
}

// TraceFor returns the generated trace for a head address, if any.
func (e *Process) TraceFor(head uint64) (*trace.Trace, bool) {
	t, ok := e.byHead[head]
	return t, ok
}

// Links returns the trace link table (for tests and tools).
func (e *Process) Links() *linker.Table { return e.links }

// TraceByID returns a materialized trace by its ID.
func (e *Process) TraceByID(id uint64) (*trace.Trace, bool) {
	t, ok := e.traces[id]
	return t, ok
}

// Preload registers already-built traces before the run starts — the
// warm-start path for cross-run cache persistence. Traces go straight into
// the manager's final tier (Graph.InsertPersistent), which for a one-tier
// unified cache is the normal insertion path. Preloaded trace IDs must not
// collide; the engine's own IDs continue above the highest preloaded ID.
func (e *Process) Preload(ts []*trace.Trace) error {
	for _, t := range ts {
		if _, dup := e.traces[t.ID]; dup {
			return fmt.Errorf("dbt: preload: duplicate trace ID %d", t.ID)
		}
		if _, dup := e.byHead[t.Head]; dup {
			return fmt.Errorf("dbt: preload: duplicate trace head %#x", t.Head)
		}
		if len(t.BlockInstrs) != len(t.BlockAddrs) {
			return fmt.Errorf("dbt: preload: trace %d has %d instruction counts for %d blocks (not built by trace.Build)", t.ID, len(t.BlockInstrs), len(t.BlockAddrs))
		}
		if err := e.cfg.Manager.InsertPersistent(e.fragmentOf(t)); err != nil {
			return fmt.Errorf("dbt: preload trace %d: %w", t.ID, err)
		}
		e.traces[t.ID] = t
		e.byHead[t.Head] = t
		e.byMod[t.Module] = append(e.byMod[t.Module], t.ID)
		h := e.heads.Mark(t.Head, t.Module)
		h.TraceID = t.ID
		if hb, ok := e.img.Block(t.Head); ok {
			e.headAt[hb.Index] = h
			e.traceAt[hb.Index] = t
		}
		e.sys.ensureIDAbove(t.ID)
		e.sys.register(t)
	}
	e.trackPeak()
	return nil
}

// threadFor returns the context for a guest thread, creating it on first
// use. Small thread IDs — all of them in practice — resolve through a dense
// slice; the map stays authoritative for arbitrary IDs.
func (e *Process) threadFor(id int) *threadCtx {
	if id >= 0 && id < len(e.threadList) {
		if c := e.threadList[id]; c != nil {
			return c
		}
	}
	c, ok := e.threads[id]
	if !ok {
		c = &threadCtx{}
		e.threads[id] = c
	}
	const maxDenseThreads = 1 << 16
	if id >= 0 && id < maxDenseThreads {
		for len(e.threadList) <= id {
			e.threadList = append(e.threadList, nil)
		}
		e.threadList[id] = c
	}
	return c
}

// lookupBlock resolves an executing guest address to its block, or nil. The
// fast path touches no maps; SlowDispatch forces the original map lookup.
func (e *Process) lookupBlock(addr uint64) *program.Block {
	if e.slow {
		b, ok := e.img.Block(addr)
		if !ok {
			return nil
		}
		return b
	}
	return e.img.BlockFast(addr)
}

// markHead marks blk as a trace head in the table and the dense mirror. On
// the fast path an already-marked head is answered from the mirror without
// touching the map (the mirror holds exactly the marked heads).
func (e *Process) markHead(blk *program.Block) *bbcache.Head {
	if !e.slow {
		if h := e.headAt[blk.Index]; h != nil {
			return h
		}
	}
	h := e.heads.Mark(blk.Addr, blk.Module)
	e.headAt[blk.Index] = h
	return h
}

// Run drives the guest to completion (or until maxBlocks guest blocks have
// executed; 0 means no limit).
func (e *Process) Run(g Guest, maxBlocks uint64) error {
	var step Step
	for {
		max, ok := e.runCap(math.MaxInt, maxBlocks)
		if !ok {
			return nil
		}
		if done, err := e.step(g, &step, max); done || err != nil {
			return err
		}
	}
}

// runCap lowers a run's cap max to what is left of a budget of maxBlocks
// executed blocks (0 means none). It reports false once the budget is spent.
func (e *Process) runCap(max int, maxBlocks uint64) (int, bool) {
	if maxBlocks == 0 {
		return max, true
	}
	if e.stats.Blocks >= maxBlocks {
		return 0, false
	}
	if left := maxBlocks - e.stats.Blocks; left < uint64(max) {
		max = int(left)
	}
	return max, true
}

// step asks g for a run of at most max blocks and observes it. It reports
// whether the guest has finished, in which case the log is flushed.
func (e *Process) step(g Guest, st *Step, max int) (done bool, err error) {
	if err := g.Next(st, max); err != nil {
		return false, err
	}
	if st.Done {
		return true, e.finish()
	}
	if len(st.Blocks) > max {
		return false, fmt.Errorf("dbt: guest ran %d blocks, at most %d allowed", len(st.Blocks), max)
	}
	return false, e.Observe(st)
}

// Observe processes one run of guest blocks. It reads step only during the
// call.
//
// While the thread executes inside a trace body, a block that continues the
// body only advances the trace index and the counters, so such blocks are
// followed by address compares against the trace (followTrace) without a
// block lookup. Every other block takes the per-block path (observeBlock).
// The engine's clock moves to a block's time only before a block on that
// path, which is where every event is stamped, and to the run's last time at
// the end: times never decrease, so each event carries the time it would
// carry if the run were observed one block at a time.
func (e *Process) Observe(step *Step) error {
	blocks, times := step.Blocks, step.Times
	if len(times) != len(blocks) {
		return fmt.Errorf("dbt: step has %d blocks but %d times", len(blocks), len(times))
	}
	if len(blocks) == 0 {
		return fmt.Errorf("dbt: step has no blocks")
	}
	if times[0] > e.now {
		e.now = times[0]
	}
	for _, m := range step.Unloaded {
		if err := e.unloadModule(m); err != nil {
			return err
		}
	}
	// Loads need no engine action: code is rediscovered on execution.

	c := e.threadFor(step.Thread)
	e.cur = c
	for i := 0; i < len(blocks); i++ {
		if c.inTrace != nil && !e.slow {
			if i += e.followTrace(c, blocks[i:]); i == len(blocks) {
				break
			}
		}
		if times[i] > e.now {
			e.now = times[i]
		}
		if err := e.observeBlock(c, blocks[i]); err != nil {
			return err
		}
	}
	if last := times[len(times)-1]; last > e.now {
		e.now = last
	}
	return nil
}

// followTrace consumes the longest prefix of blocks that continues thread
// c's current trace body — the next member, or the head again after the
// last member (the self-link) — and returns its length. It counts the
// prefix's instructions from the trace's per-member counts and sets c.prev
// once, to the last member executed. SlowDispatch disables it: the
// per-block path is the reference it is checked against.
func (e *Process) followTrace(c *threadCtx, blocks []uint64) int {
	t := c.inTrace
	addrs, instrs := t.BlockAddrs, t.BlockInstrs
	idx, n := c.traceIdx, 0
	var guest uint64
	for _, a := range blocks {
		if idx < len(addrs) {
			if addrs[idx] != a {
				break
			}
		} else if a == t.Head {
			idx = 0 // the self-link wraps to the head, member 0
		} else {
			break
		}
		guest += uint64(instrs[idx])
		idx++
		n++
	}
	if n == 0 {
		return 0
	}
	c.traceIdx = idx
	c.prev = e.img.BlockFast(addrs[idx-1])
	e.stats.Blocks += uint64(n)
	e.stats.InTraceSteps += uint64(n)
	e.stats.GuestInstrs += guest
	return n
}

// observeBlock processes one guest block of thread c (e.cur) on the
// per-block path.
func (e *Process) observeBlock(c *threadCtx, addr uint64) error {
	blk := e.lookupBlock(addr)
	if blk == nil {
		return fmt.Errorf("dbt: guest executed unknown block %#x", addr)
	}
	e.stats.Blocks++
	e.stats.GuestInstrs += uint64(len(blk.Code))

	// Is this thread executing inside a trace body?
	if c.inTrace != nil {
		if c.traceIdx < len(c.inTrace.BlockAddrs) && c.inTrace.BlockAddrs[c.traceIdx] == blk.Addr {
			c.traceIdx++
			e.stats.InTraceSteps++
			c.prev = blk
			return nil
		}
		if c.traceIdx >= len(c.inTrace.BlockAddrs) && blk.Addr == c.inTrace.Head {
			// The trace's backward branch re-entered its own head: the
			// trace is self-linked, so iteration stays inside the cache
			// with no dispatcher involvement.
			c.traceIdx = 1
			e.stats.InTraceSteps++
			c.prev = blk
			return nil
		}
		// Trace exit: execution left the body. The target of a trace exit
		// becomes a trace head (§4.1 rule b), and the exiting trace is a
		// linking candidate if the very next dispatch enters another trace.
		c.exitedTrace = c.inTrace.ID
		c.inTrace = nil
		e.markHead(blk)
	}

	return e.dispatch(blk)
}

// dispatch handles a block executed outside any trace body. The fast path
// resolves the head table and trace-by-head map through dense slices indexed
// by blk.Index, with a per-thread inline cache short-circuiting the common
// same-head re-dispatch; SlowDispatch forces the original map lookups.
func (e *Process) dispatch(blk *program.Block) error {
	e.stats.Dispatches++
	c := e.cur

	// Rule (a): the target of a taken backward branch is a trace head.
	if c.prev != nil {
		last := c.prev.Last()
		if last.IsDirect() && !last.IsCall() && last.Target == blk.Addr && blk.Addr <= c.prev.Addr {
			e.markHead(blk)
		}
	}

	if c.recording != nil {
		return e.record(blk)
	}

	if e.slow {
		if t, ok := e.byHead[blk.Addr]; ok {
			return e.enterTrace(t, blk)
		}
	} else {
		if c.icHead == blk.Addr && c.icTrace != nil {
			return e.enterTrace(c.icTrace, blk)
		}
		if t := e.traceAt[blk.Index]; t != nil {
			c.icHead, c.icTrace = blk.Addr, t
			return e.enterTrace(t, blk)
		}
	}

	var h *bbcache.Head
	if e.slow {
		h, _ = e.heads.Lookup(blk.Addr)
	} else {
		h = e.headAt[blk.Index]
	}
	if h != nil {
		h.Count++
		if h.Count >= e.cfg.HotThreshold {
			// Adoption: another process of this System may already have
			// published a trace for this head in the shared persistent tier.
			// Attaching to it skips trace generation entirely — the
			// ShareJIT-style amortization the shared back-end exists for.
			if t, ok := e.sys.adopt(e.id, uint16(blk.Module), blk.Addr); ok {
				if err := e.adoptTrace(t, blk); err != nil {
					return err
				}
				return e.enterTrace(t, blk)
			}
			// Enter trace generation mode starting at this block.
			c.recording = trace.NewRecorder(blk, e.cfg.MaxTraceBlocks)
			c.recHead = blk.Addr
			e.bbExecute(blk)
			if c.recording.Done() { // single-block syscall trace
				return e.materialize()
			}
			c.prev = blk
			return nil
		}
	}

	e.bbExecute(blk)
	c.prev = blk
	return nil
}

// enterTrace handles dispatch to a generated trace's head.
func (e *Process) enterTrace(t *trace.Trace, blk *program.Block) error {
	e.stats.Accesses++
	if e.cfg.Lifetimes != nil {
		e.cfg.Lifetimes.Touch(t.ID, float64(e.now))
	}
	if e.cfg.Log != nil {
		if err := e.cfg.Log.Write(tracelog.Event{Kind: tracelog.KindAccess, Time: e.now, Trace: t.ID, Proc: e.id}); err != nil {
			return err
		}
	}
	if e.cfg.Manager.Access(t.ID) {
		e.stats.Hits++
	} else {
		// Conflict miss: the trace was evicted, so any links it held were
		// severed with it; regenerate the trace and re-insert it.
		e.stats.Misses++
		e.stats.Regens++
		e.severLinks(t.ID)
		e.acc.ChargeTraceGen(t.Size())
		_ = e.cfg.Manager.Insert(e.fragmentOf(t))
		// Only the miss path can move the occupancy peak: the hit path
		// changes no cache state, so it skips the peak probe entirely.
		e.trackPeak()
	}
	c := e.cur
	if c.exitedTrace != 0 && e.links.Link(c.exitedTrace, t.ID) {
		e.stats.LinksCreated++
	}
	c.exitedTrace = 0
	if err := e.exceptionTick(t.ID); err != nil {
		return err
	}
	c.inTrace = t
	c.traceIdx = 1
	c.prev = blk
	return nil
}

// exceptionTick drives the §4.2 undeletable-trace simulation: periodically
// an exception is raised inside the trace being entered, pinning it until
// the handler finishes some accesses later. Pins and unpins are logged so
// replays reproduce them.
func (e *Process) exceptionTick(enteredTrace uint64) error {
	if e.cfg.ExceptionInterval == 0 {
		return nil
	}
	if e.pinnedTrace != 0 && e.stats.Accesses >= e.unpinAt {
		e.cfg.Manager.SetUndeletable(e.pinnedTrace, false)
		if e.cfg.Log != nil {
			if err := e.cfg.Log.Write(tracelog.Event{Kind: tracelog.KindUnpin, Time: e.now, Trace: e.pinnedTrace, Proc: e.id}); err != nil {
				return err
			}
		}
		e.pinnedTrace = 0
	}
	if e.pinnedTrace == 0 && e.stats.Accesses%e.cfg.ExceptionInterval == 0 {
		if !e.cfg.Manager.SetUndeletable(enteredTrace, true) {
			return nil // trace not resident (insert failed); no pin
		}
		pin := e.cfg.ExceptionPinAccesses
		if pin == 0 {
			pin = 32
		}
		e.pinnedTrace = enteredTrace
		e.unpinAt = e.stats.Accesses + pin
		e.stats.Exceptions++
		if e.cfg.Log != nil {
			return e.cfg.Log.Write(tracelog.Event{Kind: tracelog.KindPin, Time: e.now, Trace: enteredTrace, Proc: e.id})
		}
	}
	return nil
}

// record extends the current recording with the next executed block.
func (e *Process) record(blk *program.Block) error {
	c := e.cur
	stopped := c.recording.Observe(blk, e.isHeadFn)
	if !stopped {
		e.bbExecute(blk)
		c.prev = blk
		return nil
	}
	// The block that stopped recording is outside the trace for backward
	// branches, existing-trace heads, and module crossings; it still
	// executes now, via the normal dispatch path, after materialization.
	includesBlk := c.recording.Reason() == trace.StopSyscall || c.recording.Reason() == trace.StopMaxBlocks
	if err := e.materialize(); err != nil {
		return err
	}
	if includesBlk {
		c.prev = blk
		return nil
	}
	return e.dispatch(blk)
}

// materialize builds the recorded trace, inserts it into the trace cache,
// and logs its creation.
func (e *Process) materialize() error {
	c := e.cur
	rec := c.recording
	c.recording = nil
	if rec.Reason() == trace.StopAborted {
		e.stats.RecordingAborted++
		return nil
	}
	if _, dup := e.byHead[rec.Blocks()[0].Addr]; dup {
		// Another guest thread materialized a trace for this head while we
		// were recording; keep the first one.
		e.stats.RecordingAborted++
		return nil
	}
	t, err := trace.Build(e.sys.nextTraceID(), rec.Blocks())
	if err != nil {
		return fmt.Errorf("dbt: materializing trace at %#x: %w", c.recHead, err)
	}
	if e.cfg.Optimize {
		optimized, r := opt.Optimize(t.Code)
		t.Code = optimized
		e.stats.OptimizedInsts += uint64(r.Removed + r.Folded)
		e.stats.OptimizedBytes += uint64(r.Saved())
	}
	e.sys.register(t)
	e.traces[t.ID] = t
	e.byHead[t.Head] = t
	e.byMod[t.Module] = append(e.byMod[t.Module], t.ID)
	e.traceAt[rec.Blocks()[0].Index] = t
	if h, ok := e.heads.Lookup(t.Head); ok {
		h.TraceID = t.ID
	}
	// Exits from this trace become trace heads once execution reaches
	// them; mark the statically known ones now.
	for _, target := range t.ExitTargets {
		if tb, ok := e.img.Block(target); ok {
			e.markHead(tb)
		}
	}

	e.stats.TracesCreated++
	e.stats.TraceBytes += uint64(t.Size())
	e.acc.ChargeTraceGen(t.Size())
	_ = e.cfg.Manager.Insert(e.fragmentOf(t))
	e.trackPeak()

	if e.cfg.Log != nil {
		err := e.cfg.Log.Write(tracelog.Event{
			Kind:   tracelog.KindCreate,
			Time:   e.now,
			Trace:  t.ID,
			Size:   uint32(t.Size()),
			Module: uint16(t.Module),
			Head:   t.Head,
			Proc:   e.id,
		})
		if err != nil {
			return err
		}
	}
	if e.cfg.Lifetimes != nil {
		e.cfg.Lifetimes.Touch(t.ID, float64(e.now))
	}
	return nil
}

// adoptTrace registers a shared-tier trace in this process's local tables —
// the front-end half of an adoption; the back-end half (owner attachment)
// already happened in System.adopt. The adoption is logged so replays can
// tell amortized attachments from paid generations.
func (e *Process) adoptTrace(t *trace.Trace, blk *program.Block) error {
	e.traces[t.ID] = t
	e.byHead[t.Head] = t
	e.byMod[t.Module] = append(e.byMod[t.Module], t.ID)
	e.traceAt[blk.Index] = t
	if h, ok := e.heads.Lookup(t.Head); ok {
		h.TraceID = t.ID
	}
	for _, target := range t.ExitTargets {
		if tb, ok := e.img.Block(target); ok {
			e.markHead(tb)
		}
	}
	e.stats.SharedAdopted++
	if e.cfg.Log != nil {
		return e.cfg.Log.Write(tracelog.Event{
			Kind:   tracelog.KindAdopt,
			Time:   e.now,
			Trace:  t.ID,
			Size:   uint32(t.Size()),
			Module: uint16(t.Module),
			Head:   t.Head,
			Proc:   e.id,
		})
	}
	return nil
}

// severLinks breaks every direct link involving trace id, counting the
// severed links.
func (e *Process) severLinks(id uint64) {
	e.stats.LinksBroken += uint64(e.links.Unlink(id))
}

func (e *Process) fragmentOf(t *trace.Trace) codecache.Fragment {
	return codecache.Fragment{
		ID:       t.ID,
		Size:     uint64(t.Size()),
		Module:   uint16(t.Module),
		HeadAddr: t.Head,
	}
}

// bbExecute runs a block from the basic-block cache, copying it in first if
// needed. Residency is checked through the dense mirror on the fast path.
func (e *Process) bbExecute(blk *program.Block) {
	e.cur.exitedTrace = 0 // untranslated code intervened; no direct link
	resident := e.bbIn[blk.Index]
	if e.slow {
		resident = e.bb.Has(blk.Addr)
	}
	if !resident {
		e.bb.CopyIn(blk)
		e.bbIn[blk.Index] = true
		e.stats.BBCopied++
		e.trackPeak()
	}
}

// unloadModule performs the program-forced evictions of §3.4: all traces
// and basic blocks from the module are deleted immediately.
func (e *Process) unloadModule(m program.ModuleID) error {
	// Abort any recording whose head lives in the module, and detach any
	// thread executing inside one of its traces.
	saved := e.cur
	for _, c := range e.threads {
		if c.recording != nil {
			if hb, ok := e.img.Block(c.recHead); ok && hb.Module == m {
				c.recording.Abort()
				e.cur = c
				_ = e.materialize()
			}
		}
		if c.inTrace != nil && c.inTrace.Module == m {
			c.inTrace = nil
		}
	}
	e.cur = saved

	victims := e.cfg.Manager.DeleteModule(uint16(m))
	for _, v := range victims {
		e.acc.ChargeEviction(int(v.Size))
	}
	// Evicted-but-known traces from the module must be forgotten too: if
	// the module is ever remapped, its code is treated as brand new.
	for _, id := range e.byMod[m] {
		if t, ok := e.traces[id]; ok {
			e.stats.UnmappedTraces++
			e.stats.UnmappedBytes += uint64(t.Size())
			e.severLinks(id)
			delete(e.traces, id)
			delete(e.byHead, t.Head)
		}
	}
	delete(e.byMod, m)
	e.bb.DeleteModule(m)
	e.heads.DeleteModule(m)

	// Clear the dense mirrors for every block of the module (all forgotten
	// traces, heads, and bb-cache entries live at module-m block indices) and
	// drop every thread's inline cache, which may point at a deleted trace.
	if mod := e.img.Module(m); mod != nil {
		for _, fn := range mod.Functions {
			for _, b := range fn.Blocks {
				e.traceAt[b.Index] = nil
				e.headAt[b.Index] = nil
				e.bbIn[b.Index] = false
			}
		}
	}
	for _, c := range e.threads {
		c.icHead, c.icTrace = 0, nil
	}

	if e.cfg.Log != nil {
		return e.cfg.Log.Write(tracelog.Event{Kind: tracelog.KindUnmap, Time: e.now, Module: uint16(m), Proc: e.id})
	}
	return nil
}

func (e *Process) trackPeak() {
	total := e.bb.Bytes() + e.cfg.Manager.Used()
	if total > e.stats.PeakCacheBytes {
		e.stats.PeakCacheBytes = total
	}
}

// finish flushes the event log.
func (e *Process) finish() error {
	if e.cfg.Log != nil {
		if err := e.cfg.Log.Write(tracelog.Event{Kind: tracelog.KindEnd, Time: e.now, Proc: e.id}); err != nil {
			return err
		}
		return e.cfg.Log.Flush()
	}
	return nil
}
