// The System back-end: what remains shared when the engine splits into
// per-process front-ends. A System owns trace identity (IDs are unique
// system-wide), the bodies of traces published to the shared persistent
// tier, and the tier itself; Processes dispatch, record, and keep private
// nursery/probation caches, and come to the System only to allocate IDs and
// to adopt traces other processes already generated.

package dbt

import (
	"fmt"
	"sync"

	"repro/internal/bbcache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/linker"
	"repro/internal/program"
	"repro/internal/trace"
)

// System is the shared back-end of a multi-process dynamic optimizer. All
// methods are safe for concurrent use by its Processes; each Process is
// itself single-goroutine, as before.
type System struct {
	mu     sync.Mutex
	shared *core.SharedPersistent
	nextID uint64
	// bodies maps trace IDs to their built bodies so an adopting process can
	// execute a trace it never recorded. Only maintained when a shared tier
	// exists; a single-process system would pay the map for nothing.
	bodies map[uint64]*trace.Trace
	procs  []*Process
}

// NewSystem creates a system over the given shared persistent tier (nil for
// a single-process system with a fully private manager).
func NewSystem(shared *core.SharedPersistent) *System {
	s := &System{shared: shared, nextID: 1}
	if shared != nil {
		s.bodies = make(map[uint64]*trace.Trace)
	}
	return s
}

// Shared returns the system's shared persistent tier, or nil.
func (s *System) Shared() *core.SharedPersistent { return s.shared }

// Procs returns the system's processes in creation order.
func (s *System) Procs() []*Process {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Process(nil), s.procs...)
}

// nextTraceID allocates a system-unique trace ID.
func (s *System) nextTraceID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// ensureIDAbove advances the ID allocator past an externally assigned ID
// (preloaded snapshots carry their own).
func (s *System) ensureIDAbove(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id >= s.nextID {
		s.nextID = id + 1
	}
}

// register publishes a trace body so other processes can adopt it. No-op in
// single-process systems.
func (s *System) register(t *trace.Trace) {
	if s.shared == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bodies[t.ID] = t
}

// adopt tries to attach process proc to a shared-tier trace for the given
// guest code identity. On success the trace is owned by proc in the shared
// tier and its body is returned for local registration.
func (s *System) adopt(proc int, module uint16, head uint64) (*trace.Trace, bool) {
	if s.shared == nil {
		return nil, false
	}
	id, ok := s.shared.ResidentKey(module, head)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	t := s.bodies[id]
	s.mu.Unlock()
	if t == nil {
		return nil, false
	}
	// Attach after the body lookup: if the trace was evicted in between, the
	// attach fails and the adoption is abandoned (the process records its
	// own trace as usual).
	if !s.shared.Attach(proc, id) {
		return nil, false
	}
	return t, true
}

// NewProcess creates a front-end process with the given ID over this
// system. The configuration's Manager should be process-private (in shared
// systems, a core.NewGraphShared over the system's tier); its events are
// stamped with the process ID.
func (s *System) NewProcess(id int, img *program.Image, cfg Config) (*Process, error) {
	if cfg.Manager == nil {
		return nil, fmt.Errorf("dbt: config requires a Manager")
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = 50
	}
	if cfg.MaxTraceBlocks == 0 {
		cfg.MaxTraceBlocks = trace.DefaultMaxBlocks
	}
	cfg.Manager.SetProcID(id)
	n := img.NumBlocks()
	e := &Process{
		id:      id,
		sys:     s,
		cfg:     cfg,
		acc:     costmodel.NewAccum(costmodel.DefaultModel),
		img:     img,
		bb:      bbcache.New(),
		heads:   bbcache.NewHeadTable(),
		traces:  make(map[uint64]*trace.Trace),
		byHead:  make(map[uint64]*trace.Trace),
		byMod:   make(map[program.ModuleID][]uint64),
		threads: make(map[int]*threadCtx),
		links:   linker.New(),
		slow:    cfg.SlowDispatch,
		traceAt: make([]*trace.Trace, n),
		headAt:  make([]*bbcache.Head, n),
		bbIn:    make([]bool, n),
	}
	e.isHeadFn = func(addr uint64) bool {
		_, ok := e.byHead[addr]
		return ok
	}
	s.mu.Lock()
	s.procs = append(s.procs, e)
	s.mu.Unlock()
	return e, nil
}

// ID returns the process's ID within its system.
func (e *Process) ID() int { return e.id }

// RunRoundRobin drives every process's guest to completion on one
// goroutine, deterministically: processes execute quantum guest blocks each
// in rotation, and process p is admitted into the rotation only once
// stagger×p total blocks have executed system-wide (so earlier processes
// warm the shared tier before later ones start — the arrival pattern that
// makes adoption observable). A fixed seed plus this fixed schedule gives
// bit-identical aggregate statistics and event logs across runs.
// maxBlocksPerProc bounds each process like Run's maxBlocks; 0 means none.
func (s *System) RunRoundRobin(guests []Guest, quantum int, stagger uint64, maxBlocksPerProc uint64) error {
	s.mu.Lock()
	procs := append([]*Process(nil), s.procs...)
	s.mu.Unlock()
	if len(guests) != len(procs) {
		return fmt.Errorf("dbt: %d guests for %d processes", len(guests), len(procs))
	}
	if quantum <= 0 {
		quantum = 64
	}
	done := make([]bool, len(procs))
	remaining := len(procs)
	admitted := 1
	var total uint64
	var step Step
	for remaining > 0 {
		for admitted < len(procs) && total >= uint64(admitted)*stagger {
			admitted++
		}
		progressed := false
		for i := 0; i < admitted; i++ {
			if done[i] {
				continue
			}
			p := procs[i]
			for q := 0; q < quantum; {
				max, ok := p.runCap(quantum-q, maxBlocksPerProc)
				if !ok {
					done[i] = true
					remaining--
					if err := p.finish(); err != nil {
						return err
					}
					break
				}
				finished, err := p.step(guests[i], &step, max)
				if err != nil {
					return err
				}
				if finished {
					done[i] = true
					remaining--
					break
				}
				q += len(step.Blocks)
				total += uint64(len(step.Blocks))
				progressed = true
			}
		}
		// Every admitted process finished before the next admission point:
		// admit the next one now instead of spinning forever.
		if !progressed && admitted < len(procs) {
			admitted++
		}
	}
	return nil
}

// RunConcurrent drives every process's guest on its own goroutine — the
// mode the race detector exercises: private front-end state stays
// single-goroutine per process while the shared tier and the system's ID
// allocator and body table are hit concurrently. Nondeterministic
// interleaving; experiments wanting reproducible numbers use RunRoundRobin.
func (s *System) RunConcurrent(guests []Guest, maxBlocksPerProc uint64) error {
	s.mu.Lock()
	procs := append([]*Process(nil), s.procs...)
	s.mu.Unlock()
	if len(guests) != len(procs) {
		return fmt.Errorf("dbt: %d guests for %d processes", len(guests), len(procs))
	}
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = procs[i].Run(guests[i], maxBlocksPerProc)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Merge adds another run's statistics into s: counters sum; peaks, finals,
// and end times take the maximum (processes overlap in time, so summing
// those would double-count). Experiments aggregate per-process RunStats
// with it.
func (s *RunStats) Merge(o RunStats) {
	s.Blocks += o.Blocks
	s.GuestInstrs += o.GuestInstrs
	s.Dispatches += o.Dispatches
	s.InTraceSteps += o.InTraceSteps
	s.BBCopied += o.BBCopied
	s.BBBytes += o.BBBytes
	s.Exceptions += o.Exceptions
	s.OptimizedInsts += o.OptimizedInsts
	s.OptimizedBytes += o.OptimizedBytes
	s.LinksCreated += o.LinksCreated
	s.LinksBroken += o.LinksBroken
	s.TracesCreated += o.TracesCreated
	s.SharedAdopted += o.SharedAdopted
	s.TraceBytes += o.TraceBytes
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Regens += o.Regens
	s.UnmappedTraces += o.UnmappedTraces
	s.UnmappedBytes += o.UnmappedBytes
	if o.PeakCacheBytes > s.PeakCacheBytes {
		s.PeakCacheBytes = o.PeakCacheBytes
	}
	s.FinalCacheBytes += o.FinalCacheBytes
	s.RecordingAborted += o.RecordingAborted
	if o.EndTime > s.EndTime {
		s.EndTime = o.EndTime
	}
}
