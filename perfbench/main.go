// Command perfbench is the repository benchmark: it builds one workload's
// inputs from a seed, runs the workload for a fixed time, checks every
// operation's output, and prints the metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload paper|serve|cluster --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it runs the same loop twice, untraced and then with
// spans recorded around the calls into each layer, and adds a layer budget
// measured by timing calls into the modules' public functions; it reports
// the per-layer metrics. See README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// opts is one run's command line.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// smoke shrinks every input so the package test runs each workload in
	// about a second; golden counters apply only at full size.
	smoke bool
}

// report collects one run's op counts, metrics and deterministic counters.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	// counters holds the counts that must repeat exactly between runs of
	// the same seed; golden.json pins them for the default seed.
	counters map[string]uint64
	// digest is the paper workload's rendered-figure digest.
	digest string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), counters: make(map[string]uint64)}
}

// set records a metric; its unit comes from the metric tables.
func (r *report) set(name string, v float64) {
	def, ok := metricDefs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: def.unit}
}

// op records one checked operation.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, opts, *report) error{
	"paper":   runPaper,
	"serve":   runServe,
	"cluster": runCluster,
}

func main() {
	var o opts
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper, serve or cluster")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; golden outputs are recorded for the default")
	flag.IntVar(&seconds, "seconds", 20, "how long the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": sourceID(),
		"attempted": rep.attempted, "failed": rep.failed,
		"counters": rep.counters, "digest": rep.digest,
	}
	line, _ := json.Marshal(meta)
	fmt.Printf("%s\n", line)
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	fmt.Printf("%s\n", out)
}

// run executes one workload and fills in the metrics the mode reports.
func run(ctx context.Context, o opts) (*report, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := newReport()
	if err := fn(ctx, o, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if rep.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation ran", o.workload)
	}
	if !o.trace {
		rep.set("peak_rss_mb", peakRSSMiB())
	}
	return rep, rep.keep(o.trace)
}
