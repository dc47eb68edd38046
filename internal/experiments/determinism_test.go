package experiments

import (
	"reflect"
	"testing"
)

// TestFigure9DeterministicAcrossParallelism is the pipeline's regression
// gate: collection and the Figure 9 replay matrix must produce identical
// typed rows at parallel=1 (exact sequential behaviour) and parallel=8,
// because every job owns its own seeded RNG and manager state and results
// aggregate by job index.
func TestFigure9DeterministicAcrossParallelism(t *testing.T) {
	collect := func(parallel int) *Suite {
		t.Helper()
		s, err := Collect(Options{
			Scale:      0.05,
			Benchmarks: []string{"art", "gzip", "solitaire"},
			Parallel:   parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq := collect(1)
	par := collect(8)

	if len(seq.Runs) != len(par.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(seq.Runs), len(par.Runs))
	}
	for i := range seq.Runs {
		a, b := seq.Runs[i], par.Runs[i]
		if a.Profile.Name != b.Profile.Name {
			t.Fatalf("run %d: order differs (%s vs %s)", i, a.Profile.Name, b.Profile.Name)
		}
		if a.Stats != b.Stats {
			t.Errorf("%s: engine stats differ:\nseq %+v\npar %+v", a.Profile.Name, a.Stats, b.Stats)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("%s: event logs differ (%d vs %d events)", a.Profile.Name, len(a.Events), len(b.Events))
		}
	}

	figSeq, err := Figure9(seq)
	if err != nil {
		t.Fatal(err)
	}
	par.Parallel = 8
	figPar, err := Figure9(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figSeq, figPar) {
		t.Errorf("Figure9 rows differ between parallel=1 and parallel=8:\nseq %+v\npar %+v", figSeq, figPar)
	}

	// Same runs replayed at both levels must agree too (replay-level
	// determinism, independent of collection). The suite's memo would
	// answer a second Figure 9 without replaying, so the second pass runs
	// on a memo-free suite over the same runs.
	figSeq8, err := Figure9(memoFree(seq, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figSeq, figSeq8) {
		t.Error("Figure9 on the same suite differs across parallelism levels")
	}
}

// TestPolicySelectionDeterministicAcrossParallelism extends the gate to the
// online policy selector: shadow racing and switch decisions are keyed to
// the graph's access counter, so the full static-vs-selector comparison —
// miss rates, switch counts, final live policies — must be bit-identical run
// over run and at parallel=1 versus parallel=8. eon's row is also the live
// switch check: its best static policy is not the selector's starting one
// (eon favors the pseudo-circular sweep), so a selector that never switches
// fails here.
func TestPolicySelectionDeterministicAcrossParallelism(t *testing.T) {
	s, err := Collect(Options{
		Scale:      0.05,
		Benchmarks: []string{"art", "gzip", "solitaire", "eon"},
		Parallel:   4,
	})
	if err != nil {
		t.Fatal(err)
	}

	s.Parallel = 1
	seq, err := PolicySelection(s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := PolicySelection(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, again) {
		t.Errorf("selection rows differ across repeated runs:\nfirst %+v\nsecond %+v", seq, again)
	}

	s.Parallel = 8
	par, err := PolicySelection(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("selection rows differ between parallel=1 and parallel=8:\nseq %+v\npar %+v", seq, par)
	}

	// The determinism claim is only interesting if the selector actually
	// swapped a live policy during the replays, and on eon (one tier at half
	// the peak footprint, epoch 256) it must.
	var switches uint64
	eon := false
	for _, r := range seq {
		switches += r.Switches
		if r.Name == "eon" {
			eon = true
			if r.Switches == 0 {
				t.Errorf("eon: selector applied no switches (final %s); its best static policy is %s", r.Final, r.Configs[r.BestStatic])
			}
		}
	}
	if !eon {
		t.Error("no eon row")
	}
	if switches == 0 {
		t.Error("selector applied no switches at this scale; test exercises nothing")
	}
}

// TestAdaptiveDeterministicAcrossParallelism extends the gate to the
// adaptive-split controller: its epoch clock is keyed to the graph's access
// counter, never to wall time or worker scheduling, so the full
// static-vs-adaptive comparison — miss rates, resize counts, reversals —
// must be bit-identical run over run and at parallel=1 versus parallel=8.
func TestAdaptiveDeterministicAcrossParallelism(t *testing.T) {
	s, err := Collect(Options{
		Scale:      0.05,
		Benchmarks: []string{"art", "gzip", "solitaire"},
		Parallel:   4,
	})
	if err != nil {
		t.Fatal(err)
	}

	s.Parallel = 1
	seq, err := AdaptiveVsStatic(s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := AdaptiveVsStatic(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, again) {
		t.Errorf("adaptive rows differ across repeated runs:\nfirst %+v\nsecond %+v", seq, again)
	}

	s.Parallel = 8
	par, err := AdaptiveVsStatic(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("adaptive rows differ between parallel=1 and parallel=8:\nseq %+v\npar %+v", seq, par)
	}

	// The determinism claim is only interesting if the controller actually
	// moved capacity during the replays.
	var resizes uint64
	for _, r := range seq {
		resizes += r.Resizes
	}
	if resizes == 0 {
		t.Error("controller applied no resizes at this scale; test exercises nothing")
	}
}
