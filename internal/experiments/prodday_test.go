package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dayload"
)

// TestProductionDayAutoWins runs the standard production day as `gencached
// prodday` does by default: 40 sessions, every session verified against its
// offline replay, the attribution ledger attached, and arms running two at a
// time. The autoscaled, load-reactive arm must resize admission at least once
// and beat every static (slots, queue, split) configuration: strictly better
// service than arms at comparable memory, no worse service than arms
// provisioned above it. Every arm must serve without failures or divergences
// and conserve its miss causes, and the auto arm's timeline CSV and NDJSON
// stream must keep their schema and show the day's deploy and flash crowd.
func TestProductionDayAutoWins(t *testing.T) {
	res, err := ProductionDay(ProductionDayOptions{Verify: true, Why: true, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("auto arm %s: %d served, %d rejected, %d resizes, p95 %s, %.2f avg slots",
		res.Auto.Arm, res.Auto.Served, res.Auto.Rejected, res.Auto.Resizes,
		res.Auto.P95Latency, res.Auto.AvgSlots)
	if res.Auto.Resizes == 0 {
		t.Error("autoscaled arm never resized admission")
	}
	for _, arm := range append([]*dayload.Result{res.Auto}, res.Statics...) {
		if arm.VerifyFailed != 0 || arm.Failures != 0 {
			t.Errorf("arm %s: %d verification divergences, %d failed sessions", arm.Arm, arm.VerifyFailed, arm.Failures)
		}
		if arm.Regenerations == 0 || !arm.CausesConserved() {
			t.Errorf("arm %s: causes %+v do not conserve against %d regenerations", arm.Arm, arm.Causes, arm.Regenerations)
		}
	}
	for i, v := range res.Verdicts {
		st := res.Statics[i]
		t.Logf("vs %s (%d rejected, p95 %s, %.2f avg slots): beats=%v — %s",
			v.Arm, st.Rejected, st.P95Latency, st.AvgSlots, v.AutoBeats, v.Reason)
		if !v.AutoBeats {
			t.Errorf("autoscaled arm does not beat %s: %s", v.Arm, v.Reason)
		}
	}
	if !res.AutoWins {
		t.Error("AutoWins = false")
	}

	const header = "hour,arrivals,admitted,rejected,completed,queued,slots,queue_cap,resizes,accesses,misses,miss_rate,adoptions,published,shared_used,mean_latency_ms,cold,capacity,premature_demotion,never_promoted,unmap_forced,adoption_miss"
	if dayload.CSVHeader != header {
		t.Errorf("timeline CSV schema changed:\n got %s\nwant %s", dayload.CSVHeader, header)
	}
	if first, _, _ := strings.Cut(res.Auto.CSV, "\n"); first != header {
		t.Errorf("auto arm's CSV starts with %q, not the schema header", first)
	}
	var deploy, crowd bool
	for _, line := range strings.Split(strings.TrimSpace(res.Auto.NDJSON), "\n") {
		var ev struct {
			Kind  string `json:"kind"`
			Crowd bool   `json:"crowd"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("NDJSON line %q: %v", line, err)
		}
		deploy = deploy || ev.Kind == "deploy"
		crowd = crowd || ev.Kind == "arrival" && ev.Crowd
	}
	if !deploy || !crowd {
		t.Errorf("auto arm's NDJSON: deploy event %v, crowd arrival %v; want both", deploy, crowd)
	}
}

// TestProductionDayDeterministicAcrossParallelism proves arms are truly
// independent: the whole study run sequentially and run 8-wide produces
// byte-identical timeline CSV and NDJSON for every arm.
func TestProductionDayDeterministicAcrossParallelism(t *testing.T) {
	seq, err := ProductionDay(ProductionDayOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ProductionDay(ProductionDayOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	all := func(r ProductionDayResult) []*struct {
		arm, csv, nd string
	} {
		var out []*struct{ arm, csv, nd string }
		out = append(out, &struct{ arm, csv, nd string }{r.Auto.Arm, r.Auto.CSV, r.Auto.NDJSON})
		for _, st := range r.Statics {
			out = append(out, &struct{ arm, csv, nd string }{st.Arm, st.CSV, st.NDJSON})
		}
		return out
	}
	a, b := all(seq), all(par)
	if len(a) != len(b) {
		t.Fatalf("arm counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].arm != b[i].arm {
			t.Fatalf("arm %d name differs: %s vs %s", i, a[i].arm, b[i].arm)
		}
		if a[i].csv != b[i].csv {
			t.Errorf("arm %s: timeline CSV differs between -parallel 1 and 8", a[i].arm)
		}
		if a[i].nd != b[i].nd {
			t.Errorf("arm %s: NDJSON stream differs between -parallel 1 and 8", a[i].arm)
		}
	}
}
