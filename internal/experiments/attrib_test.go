package experiments

import (
	"bytes"
	"testing"

	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// attribReplay replays one collected run through a unified cache at half its
// unbounded footprint with the attribution ledger attached, and returns the
// ledger's snapshot.
func attribReplay(s *Suite, r *Run) (*attrib.Snapshot, error) {
	capacity := r.MaxTraceBytes() / 2
	if capacity == 0 {
		return nil, nil
	}
	spec := core.UnifiedSpec(capacity, nil)
	spec.Attrib = &attrib.Config{}
	acc := costmodel.NewAccum(s.Model)
	mgr, err := core.NewGraph(spec, sim.CostObserver(acc))
	if err != nil {
		return nil, err
	}
	if _, err := sim.Replay(r.Profile.Name, r.Events, mgr, acc, nil); err != nil {
		return nil, err
	}
	return mgr.Ledger().Snapshot(), nil
}

// TestAttribConservationAllBenchmarks drives the ledger's hard invariant
// across the full 32-benchmark suite at small scale: on every benchmark,
// non-cold cause counts must sum exactly to the replay's regenerations — no
// miss unexplained, none double-explained.
func TestAttribConservationAllBenchmarks(t *testing.T) {
	s, err := Collect(Options{Scale: 0.02}) // nil Benchmarks = all 32
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Runs) != 32 {
		t.Fatalf("collected %d benchmarks, want 32", len(s.Runs))
	}
	snaps, err := perRun(s, func(r *Run) (*attrib.Snapshot, error) {
		return attribReplay(s, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalRegens uint64
	for i, snap := range snaps {
		name := s.Runs[i].Profile.Name
		if snap == nil {
			t.Errorf("%s: zero capacity at this scale; invariant unexercised", name)
			continue
		}
		if !snap.Conserved() {
			t.Errorf("%s: conservation violated: %d cause counts vs %d regenerations",
				name, snap.RegenCauses(), snap.Regens)
		}
		totalRegens += snap.Regens
	}
	// Conservation is only interesting if the constrained replays actually
	// regenerated traces somewhere in the suite.
	if totalRegens == 0 {
		t.Error("no benchmark regenerated a trace; invariant unexercised")
	}
}

// TestAttribReportDeterministicAcrossParallelism extends the pipeline's
// determinism gate to the attribution ledger: the rendered per-module "why"
// report must be byte-identical run over run and at parallel=1 versus
// parallel=8, because cells sort on (module, level, epoch, proc, cause) and
// every replay job owns its own ledger.
func TestAttribReportDeterministicAcrossParallelism(t *testing.T) {
	s, err := Collect(Options{
		Scale:      0.05,
		Benchmarks: []string{"art", "gzip", "solitaire"},
		Parallel:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports := func(parallel int) []string {
		t.Helper()
		s.Parallel = parallel
		out, err := perRun(s, func(r *Run) (string, error) {
			snap, err := attribReplay(s, r)
			if err != nil || snap == nil {
				return "", err
			}
			var buf bytes.Buffer
			snap.WriteReport(&buf, 8)
			return buf.String(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := reports(1)
	again := reports(1)
	par := reports(8)
	for i := range seq {
		name := s.Runs[i].Profile.Name
		if seq[i] == "" {
			t.Errorf("%s: empty why report", name)
		}
		if seq[i] != again[i] {
			t.Errorf("%s: why report differs across repeated sequential runs", name)
		}
		if seq[i] != par[i] {
			t.Errorf("%s: why report differs between parallel=1 and parallel=8:\n--- seq ---\n%s\n--- par ---\n%s",
				name, seq[i], par[i])
		}
	}
}

// TestWhyFindsPrematureDemotion replays gzip at 1/16 scale under the graph
// `ccsim -why` builds: the stock 45-10-45 chain at half the unbounded peak,
// with the ledger attached. The ledger must conserve, count exactly the
// replay's regenerations, and charge some middle-tier deaths to premature
// demotion; gzip's probation gate reliably deletes traces that re-heat.
func TestWhyFindsPrematureDemotion(t *testing.T) {
	data, err := workload.SyntheticLog("gzip", 1.0/16)
	if err != nil {
		t.Fatal(err)
	}
	h, events, err := tracelog.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	capacity := tracelog.Summarize(h, events).MaxLiveBytes / 2
	spec, err := api.SessionConfig{Attrib: true}.GraphSpec(capacity, false)
	if err != nil {
		t.Fatal(err)
	}
	acc := costmodel.NewAccum(costmodel.DefaultModel)
	g, err := core.NewGraph(spec, sim.CostObserver(acc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Replay(h.Benchmark, events, g, acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Ledger().Snapshot()
	if res.Regenerations == 0 {
		t.Fatal("no regenerations; conservation unexercised")
	}
	if !snap.Conserved() || snap.Regens != res.Regenerations {
		t.Errorf("conservation violated: %d cause counts, %d ledger regenerations, %d replay regenerations",
			snap.RegenCauses(), snap.Regens, res.Regenerations)
	}
	prem, middle, share := snap.PrematureShare()
	t.Logf("%d regenerations; %d of %d middle-tier deaths premature (%.1f%%)", res.Regenerations, prem, middle, share)
	if middle == 0 || prem == 0 {
		t.Errorf("premature demotion not found: %d of %d middle-tier deaths", prem, middle)
	}
}
