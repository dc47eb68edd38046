package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement, printed with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees, reported with --trace 0 on
// every workload. BENCHMARK.json names the same metrics.
var endToEnd = []metricDef{
	{"events_per_s", "events/s"},
	{"session_p50_ms", "ms"},
	{"session_p95_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the traced run's layer metrics. Per-log values are means
// over the trace logs a layer wrote or read (one per benchmark collection on
// paper, one per synthesized log or served session on serve and cluster);
// per-session values are means over served sessions. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"trace.events_per_s", "events/s"},
	{"trace.untraced_events_per_s", "events/s"},
	{"trace.overhead_ratio", "ratio"},
	{"workload.synth_s", "s/log"},
	{"dbt.run_s", "s/log"},
	{"dbt.blocks", "1/log"},
	{"dbt.traces_created", "1/log"},
	{"dbt.blocks_per_s", "blocks/s"},
	{"tracelog.readall_s", "s/log"},
	{"tracelog.decode_s", "s/log"},
	{"tracelog.decode_mb_per_s", "MB/s"},
	{"tracelog.summarize_s", "s/log"},
	{"sim.replay_s", "s/log"},
	{"sim.replay_events_per_s", "events/s"},
	{"sim.alloc_bytes_per_event", "B/event"},
	{"core.selector_s", "s/session"},
	{"core.hit_rate", "ratio"},
	{"attrib.ledger_s", "s/session"},
	{"api.encode_s", "s/session"},
	{"api.decode_s", "s/session"},
	{"server.hooks_s", "s/session"},
	{"server.http_s", "s/session"},
	{"server.observed_s", "s/session"},
	{"server.flush_s", "s/session"},
	{"server.adoptions", "1/session"},
	{"server.published", "1/session"},
	{"server.adopt_ratio", "ratio"},
	{"server.rejected", "count"},
	{"cluster.serve_session_s", "s/session"},
	{"cluster.peer_s", "s/session"},
	{"cluster.peer_share", "ratio"},
	{"cluster.peer_bytes", "B/session"},
	{"cluster.layer_s", "s/session"},
	{"cluster.lookups", "1/session"},
	{"cluster.lookup_hit_ratio", "ratio"},
	{"cluster.replicate_batches", "1/session"},
	{"cluster.replicated", "1/session"},
	{"cluster.replicate_dropped", "1/session"},
	{"cluster.peer_adoptions", "1/session"},
}

var metricDefs = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d
	}
	return m
}()

// keep reduces the metrics to the mode's table: every end-to-end metric must
// have been measured; an unmeasured layer metric reads 0.
func (r *report) keep(trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok && !trace {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		m.Unit = d.unit
		out[d.name] = m
	}
	r.metrics = out
	return nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeIt returns fn's wall time.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// sourceID names the code under test: the VCS revision the binary was built
// from, or, in a checkout without version control, a digest of the module's
// Go sources (the working directory is the repository root).
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
