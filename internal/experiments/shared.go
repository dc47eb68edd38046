// The shared-vs-isolated experiment: N instances of one application run
// either as N fully isolated engines (the paper's model — every process pays
// for every trace it executes) or as N front-end processes over one shared
// persistent generation (the ShareJIT-style extension). The comparison
// quantifies what sharing buys: traces a later process adopts from the
// shared tier are generations it never pays for.

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SharedVsIsolatedRow compares N isolated engines against N processes over
// one shared persistent tier, for one benchmark.
type SharedVsIsolatedRow struct {
	Name  string
	Procs int
	// CapacityBytes is the per-process cache capacity (half the benchmark's
	// unbounded peak, the same sizing rule the capacity sweeps use).
	CapacityBytes uint64

	// Trace generations actually paid (cold creations + regenerations),
	// summed across processes.
	IsolatedGens uint64
	SharedGens   uint64
	// Adopted counts shared-tier attachments: generations the shared
	// configuration avoided by reusing a peer's trace.
	Adopted uint64

	IsolatedMissRate float64
	SharedMissRate   float64

	// Overheads are total modeled instruction costs (engine + cache
	// management), summed across processes.
	IsolatedOverhead float64
	SharedOverhead   float64

	// Memory footprints: isolated pays N full caches; shared pays one
	// persistent arena plus N private nursery/probation pairs.
	IsolatedFootprintBytes uint64
	SharedFootprintBytes   uint64

	// SharedTier is the shared tier's own counter set after the run.
	SharedTier core.SharedStats
}

// GensSaved returns the fraction of isolated generations the shared
// configuration avoided; positive means sharing helped.
func (r SharedVsIsolatedRow) GensSaved() float64 {
	if r.IsolatedGens == 0 {
		return 0
	}
	return 1 - float64(r.SharedGens)/float64(r.IsolatedGens)
}

// SharedVsIsolated runs the comparison for every collected benchmark. Both
// arms execute procs full engine runs with process-varied drivers
// (workload.NewDriverProc), so the two arms see identical guest work; the
// shared arm interleaves its processes on the deterministic staggered
// round-robin schedule so earlier processes warm the tier for later ones.
func SharedVsIsolated(s *Suite, procs int) ([]SharedVsIsolatedRow, error) {
	if procs < 2 {
		return nil, fmt.Errorf("experiments: shared-vs-isolated needs at least 2 processes, got %d", procs)
	}
	return perRun(s, func(r *Run) (SharedVsIsolatedRow, error) {
		return sharedVsIsolatedOne(r, s.Model, procs)
	})
}

// sharedCapacityFor sizes the per-process cache off the unbounded run: half
// the peak live trace bytes, floored so tiny benchmarks stay runnable.
func sharedCapacityFor(r *Run) uint64 {
	capacity := r.MaxTraceBytes() / 2
	if capacity < 4096 {
		capacity = 4096
	}
	return capacity
}

func sharedVsIsolatedOne(r *Run, model costmodel.Model, procs int) (SharedVsIsolatedRow, error) {
	bench, err := workload.Synthesize(r.Profile)
	if err != nil {
		return SharedVsIsolatedRow{}, err
	}
	capacity := sharedCapacityFor(r)
	cfg := core.Layout451045Threshold1(capacity)
	row := SharedVsIsolatedRow{
		Name:          r.Profile.Name,
		Procs:         procs,
		CapacityBytes: capacity,
	}

	// Isolated arm: N independent engines, each with a fully private
	// generational cache of the full capacity.
	isoMgrCost := costmodel.NewAccum(model)
	var isoStats dbt.RunStats
	for p := 0; p < procs; p++ {
		mgr, err := core.NewGraph(cfg.GraphSpec(), sim.CostObserver(isoMgrCost))
		if err != nil {
			return row, err
		}
		eng, err := dbt.New(bench.Image, dbt.Config{Manager: mgr, Model: &model})
		if err != nil {
			return row, err
		}
		if err := eng.Run(bench.NewDriverProc(p), 0); err != nil {
			return row, fmt.Errorf("experiments: isolated %s proc %d: %w", r.Profile.Name, p, err)
		}
		isoStats.Merge(eng.Stats())
		row.IsolatedOverhead += eng.Overhead().Total()
	}
	row.IsolatedOverhead += isoMgrCost.Total()
	row.IsolatedGens = isoStats.TracesCreated + isoStats.Regens
	if isoStats.Accesses > 0 {
		row.IsolatedMissRate = float64(isoStats.Misses) / float64(isoStats.Accesses)
	}
	row.IsolatedFootprintBytes = uint64(procs) * capacity

	// Shared arm: one persistent tier, N front-end processes with private
	// nursery/probation pairs of the same per-process fractions. The tier
	// pools the N isolated persistent shares into one arena — the same
	// aggregate persistent memory, but traces common across processes (the
	// application's hot core) occupy it once instead of N times.
	shMgrCost := costmodel.NewAccum(model)
	spCap := uint64(procs) * uint64(float64(capacity)*cfg.PersistentFrac)
	sp := core.NewSharedPersistent(spCap, nil, sim.CostObserver(shMgrCost))
	sys := dbt.NewSystem(sp)
	guests := make([]dbt.Guest, procs)
	for p := 0; p < procs; p++ {
		mgr, err := core.NewGraphShared(cfg.GraphSpec(), sp, p, sim.CostObserver(shMgrCost))
		if err != nil {
			return row, err
		}
		if _, err := sys.NewProcess(p, bench.Image, dbt.Config{Manager: mgr, Model: &model}); err != nil {
			return row, err
		}
		guests[p] = bench.NewDriverProc(p)
	}
	stagger := bench.TotalBudget() / uint64(2*procs)
	if err := sys.RunRoundRobin(guests, 64, stagger, 0); err != nil {
		return row, fmt.Errorf("experiments: shared %s: %w", r.Profile.Name, err)
	}
	var shStats dbt.RunStats
	for _, proc := range sys.Procs() {
		shStats.Merge(proc.Stats())
		row.SharedOverhead += proc.Overhead().Total()
	}
	row.SharedOverhead += shMgrCost.Total()
	row.SharedGens = shStats.TracesCreated + shStats.Regens
	row.Adopted = shStats.SharedAdopted
	if shStats.Accesses > 0 {
		row.SharedMissRate = float64(shStats.Misses) / float64(shStats.Accesses)
	}
	priv := uint64(float64(capacity)*cfg.NurseryFrac) + uint64(float64(capacity)*cfg.ProbationFrac)
	row.SharedFootprintBytes = spCap + uint64(procs)*priv
	row.SharedTier = sp.Stats()
	return row, nil
}

// RenderSharedVsIsolated renders the comparison as text.
func RenderSharedVsIsolated(rows []SharedVsIsolatedRow) string {
	t := stats.NewTable("Benchmark", "Procs", "Capacity", "IsoGens", "ShGens", "Adopted", "GensSaved", "IsoMiss", "ShMiss", "IsoMem", "ShMem")
	var isoG, shG, ad uint64
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%d", r.Procs), stats.FmtBytes(r.CapacityBytes),
			fmt.Sprintf("%d", r.IsolatedGens), fmt.Sprintf("%d", r.SharedGens),
			fmt.Sprintf("%d", r.Adopted), fmt.Sprintf("%.1f%%", r.GensSaved()*100),
			fmt.Sprintf("%.4f", r.IsolatedMissRate), fmt.Sprintf("%.4f", r.SharedMissRate),
			stats.FmtBytes(r.IsolatedFootprintBytes), stats.FmtBytes(r.SharedFootprintBytes))
		isoG += r.IsolatedGens
		shG += r.SharedGens
		ad += r.Adopted
	}
	var saved float64
	if isoG > 0 {
		saved = 1 - float64(shG)/float64(isoG)
	}
	t.AddRow("(total)", "", "", fmt.Sprintf("%d", isoG), fmt.Sprintf("%d", shG),
		fmt.Sprintf("%d", ad), fmt.Sprintf("%.1f%%", saved*100), "", "", "", "")
	return t.String()
}
