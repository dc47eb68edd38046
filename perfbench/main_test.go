package main

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke size, untraced and traced: each
// must emit exactly the metrics BENCHMARK.json names for the mode, with
// every op passing its output check, and two runs of one seed must produce
// the same deterministic counters.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			var first map[string]uint64
			for _, trace := range []bool{false, true, false} {
				o := opts{workload: w, seed: 7, seconds: 200 * time.Millisecond, trace: trace, smoke: true}
				rep, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("trace=%v: %d of %d ops failed", trace, rep.failed, rep.attempted)
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if len(rep.metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", trace, len(rep.metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("%s = %v, want > 0", m.Name, got.Value)
					}
				}
				if len(rep.counters) == 0 {
					t.Fatal("no deterministic counters")
				}
				if first == nil {
					first = rep.counters
				} else if !maps.Equal(first, rep.counters) {
					t.Errorf("counters differ between runs of one seed:\n%v\n%v", first, rep.counters)
				}
			}
		})
	}
}
