package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// defaultSeed keeps every benchmark profile at its calibrated RNG seed; the
// golden outputs in golden.json are recorded for it.
const defaultSeed = 1

// seedOffset shifts every profile's RNG seed, so each seed synthesizes
// different programs of the same size targets.
func seedOffset(seed int64) int64 { return (seed - defaultSeed) * 1000 }

// logSpec is one served log: a benchmark synthesized at a scale. The scales
// give every log 45k-85k events (seeds 1-6), so sessions of one class cost
// about the same on every log and the latency percentiles do not sit on a
// boundary between logs of very different size.
type logSpec struct {
	bench string
	scale float64
}

// servedLogs are the serve and cluster workloads' logs: three interactive
// applications and three SPEC benchmarks.
var servedLogs = []logSpec{
	{"mpeg", 0.01}, {"winzip", 0.02}, {"access", 0.0075},
	{"gcc", 0.03}, {"vortex", 0.06}, {"eon", 0.08},
}

// smokeScale shrinks every input of a smoke run.
const smokeScale = 0.2

// synthLog is one log made during set-up, with the time its two steps took.
type synthLog struct {
	name  string
	data  []byte
	stats dbt.RunStats
	// synth times workload.Synthesize; run times the unbounded DBT run that
	// wrote the log.
	synth, run time.Duration
}

// synthesize builds a benchmark's program and runs it under an unbounded
// cache, recording the tracelog the way `tracegen` does.
func synthesize(bench string, scale float64, seed int64) (synthLog, error) {
	out := synthLog{name: bench}
	p, ok := workload.ByName(bench)
	if !ok {
		return out, fmt.Errorf("unknown benchmark %q", bench)
	}
	p.Seed += seedOffset(seed)
	start := time.Now()
	b, err := workload.Synthesize(p.Scaled(scale))
	if err != nil {
		return out, err
	}
	out.synth = time.Since(start)
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: p.Name, DurationMicros: p.DurationMicros()})
	if err != nil {
		return out, err
	}
	start = time.Now()
	eng, err := dbt.New(b.Image, dbt.Config{Manager: core.NewUnified(1<<40, nil, nil), Log: w})
	if err != nil {
		return out, err
	}
	if err := eng.Run(b.NewDriver(), 0); err != nil {
		return out, fmt.Errorf("running %s: %w", bench, err)
	}
	if err := w.Flush(); err != nil {
		return out, err
	}
	out.run = time.Since(start)
	out.stats = eng.Stats()
	out.data = buf.Bytes()
	return out, nil
}

// synthesizeServed makes the serve and cluster workloads' logs.
func synthesizeServed(o opts) ([]synthLog, error) {
	logs := make([]synthLog, len(servedLogs))
	for i, l := range servedLogs {
		scale := l.scale
		if o.smoke {
			scale *= smokeScale
		}
		var err error
		if logs[i], err = synthesize(l.bench, scale, o.seed); err != nil {
			return nil, err
		}
	}
	return logs, nil
}

// reportSynthesis reports the DBT layer of the set-up's log synthesis.
func reportSynthesis(rep *report, logs []synthLog) {
	var synth, run time.Duration
	var blocks, traces uint64
	for _, l := range logs {
		synth += l.synth
		run += l.run
		blocks += l.stats.Blocks
		traces += l.stats.TracesCreated
	}
	n := float64(len(logs))
	rep.set("workload.synth_s", synth.Seconds()/n)
	rep.set("dbt.run_s", run.Seconds()/n)
	rep.set("dbt.blocks", float64(blocks)/n)
	rep.set("dbt.traces_created", float64(traces)/n)
	rep.set("dbt.blocks_per_s", ratio(float64(blocks), run.Seconds()))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// repeatSetup runs setup setupReps times, closing every instance but the
// last, and reports the median time as setup_s.
func repeatSetup[T any](rep *report, setup func() (T, error), closeFn func(T)) (T, error) {
	var times []float64
	var cur T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		next, err := setup()
		if err != nil {
			return cur, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			closeFn(cur)
		}
		cur = next
	}
	rep.set("setup_s", median(times))
	return cur, nil
}

//go:embed golden.json
var goldenJSON []byte

// goldenRecord is what golden.json pins for one workload at the default seed.
type goldenRecord struct {
	Digest   string            `json:"digest,omitempty"`
	Counters map[string]uint64 `json:"counters"`
}

// golden returns the recorded outputs for the workload, or nil when the run
// is not at the default seed and full size.
func golden(o opts) (*goldenRecord, error) {
	if o.seed != defaultSeed || o.smoke {
		return nil, nil
	}
	var all map[string]*goldenRecord
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g := all[o.workload]
	if g == nil {
		return nil, fmt.Errorf("golden.json has no %s record", o.workload)
	}
	return g, nil
}

// counterChecker compares the deterministic counters a run produces with the
// first value each counter took in the run and with the golden record.
type counterChecker struct {
	gold *goldenRecord
	seen map[string]uint64
}

func newCounterChecker(o opts) (*counterChecker, error) {
	g, err := golden(o)
	return &counterChecker{gold: g, seen: make(map[string]uint64)}, err
}

// check reports whether every counter matches.
func (c *counterChecker) check(counters map[string]uint64) bool {
	ok := true
	for k, v := range counters {
		if first, seen := c.seen[k]; seen {
			ok = ok && first == v
		} else {
			c.seen[k] = v
		}
		if c.gold != nil {
			want, pinned := c.gold.Counters[k]
			ok = ok && pinned && want == v
		}
	}
	return ok
}
