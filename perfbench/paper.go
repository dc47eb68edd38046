package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// The paper workload is `gencache -run fig9,fig11` in-process: one
// unbounded DBT run per benchmark collects its trace log, then Figures 9
// and 11 replay the logs through the cache configurations and render text.
var (
	paperBenches = []string{"gzip", "gcc", "crafty", "eon", "solitaire", "word"}
	paperSmoke   = []string{"gzip", "solitaire"}
)

const (
	paperScale      = 0.0625
	paperSmokeScale = 0.01
)

func paperOptions(o opts) experiments.Options {
	opt := experiments.Options{Scale: paperScale, Benchmarks: paperBenches, Parallel: 1, SeedOffset: seedOffset(o.seed)}
	if o.smoke {
		opt.Scale, opt.Benchmarks = paperSmokeScale, paperSmoke
	}
	return opt
}

// paperRound is one pass of the workload.
type paperRound struct {
	events   uint64
	counters map[string]uint64
	digest   string
}

// paperPass collects the suite, derives both figures and renders them
// exactly as gencache prints them.
func paperPass(ctx context.Context, opt experiments.Options, tr *tracer) (paperRound, error) {
	r := paperRound{counters: make(map[string]uint64)}
	top := tr.begin("paper.round", -1)
	defer tr.end(top)
	sp := tr.begin("experiments.collect", top)
	suite, err := experiments.CollectContext(ctx, opt)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("experiments.figure9", top)
	fig9, err := experiments.Figure9(suite)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("experiments.figure11", top)
	fig11, err := experiments.Figure11(suite)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	var text strings.Builder
	fmt.Fprintf(&text, "\n=== %s ===\n\n", "Figure 9: miss-rate reduction of generational layouts over a unified cache")
	text.WriteString(experiments.RenderFigure9(fig9))
	fmt.Fprintf(&text, "\n=== %s ===\n\n", "Figure 11: instruction-overhead ratio (Equation 3), 45-10-45 @1")
	text.WriteString(experiments.RenderFigure11(fig11))
	sum := sha256.Sum256([]byte(text.String()))
	r.digest = hex.EncodeToString(sum[:])
	for _, run := range suite.Runs {
		r.events += uint64(len(run.Events))
		r.counters["dbt.blocks/"+run.Profile.Name] = run.Stats.Blocks
		r.counters["dbt.traces_created/"+run.Profile.Name] = run.Stats.TracesCreated
	}
	return r, nil
}

// paperLoop repeats whole passes until the run's time is up. A pass is one
// session: what a user waits for when regenerating the two figures. Its
// collections' counters are one op, and its rendered text, whose digest
// must equal the first pass's and the golden one, another.
func paperLoop(ctx context.Context, o opts, cc *counterChecker, tr *tracer, rep *report) (events uint64, busy time.Duration, sessions []float64) {
	opt := paperOptions(o)
	start := time.Now()
	for time.Since(start) < o.seconds {
		// Each pass starts from a clean heap, as a fresh gencache process
		// does. Otherwise the previous pass's suite is garbage the collector
		// may or may not have freed when this pass peaks, and peak_rss_mb
		// swings by up to 40% between runs of one seed. The collection is
		// outside the pass's time.
		runtime.GC()
		t0 := time.Now()
		r, err := paperPass(ctx, opt, tr)
		d := time.Since(t0)
		busy += d
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper: pass failed:", err)
			rep.op(false)
			rep.op(false)
			continue
		}
		events += r.events
		sessions = append(sessions, ms(d))
		rep.op(cc.check(r.counters))
		if rep.digest == "" {
			rep.digest = r.digest
			rep.counters = r.counters
		}
		rep.op(r.digest == rep.digest && (cc.gold == nil || r.digest == cc.gold.Digest))
	}
	return events, busy, sessions
}

func runPaper(ctx context.Context, o opts, rep *report) error {
	opt := paperOptions(o)
	// Set-up generates the inputs: every benchmark program, synthesized from
	// its seeded profile, as the collection will rebuild it.
	_, err := repeatSetup(rep, func() (int, error) {
		for _, name := range opt.Benchmarks {
			p, _ := workload.ByName(name)
			p.Seed += opt.SeedOffset
			if _, err := workload.Synthesize(p.Scaled(opt.Scale)); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}, func(int) {})
	if err != nil {
		return err
	}
	cc, err := newCounterChecker(o)
	if err != nil {
		return err
	}
	events, busy, sessions := paperLoop(ctx, o, cc, nil, rep)
	untraced := float64(events) / busy.Seconds()
	rep.set("events_per_s", untraced)
	rep.set("session_p50_ms", median(sessions))
	rep.set("session_p95_ms", quantile(sessions, 0.95))
	if !o.trace {
		return nil
	}
	tr := newTracer()
	events, busy, _ = paperLoop(ctx, o, cc, tr, rep)
	reportOverhead(rep, untraced, float64(events)/busy.Seconds())
	return paperLayers(opt, o.seed, rep)
}

// reportOverhead records the traced loop's throughput beside the untraced one.
func reportOverhead(rep *report, untraced, traced float64) {
	rep.set("trace.untraced_events_per_s", untraced)
	rep.set("trace.events_per_s", traced)
	rep.set("trace.overhead_ratio", 1-ratio(traced, untraced))
}

// paperLayers times, per benchmark, the public calls a collection and its
// figure replays make: synthesis, the DBT run, ReadAll, Summarize, and the
// unified and 45-10-45 replays Figures 9 and 11 run on every log.
func paperLayers(opt experiments.Options, seed int64, rep *report) error {
	var logs []synthLog
	for _, name := range opt.Benchmarks {
		l, err := synthesize(name, opt.Scale, seed)
		if err != nil {
			return err
		}
		logs = append(logs, l)
	}
	reportSynthesis(rep, logs)
	var readAll, decode, summarize, replay time.Duration
	var logBytes, replayed, allocBytes uint64
	model := costmodel.DefaultModel
	for _, l := range logs {
		logBytes += uint64(len(l.data))
		d, err := decodeLog(l.data)
		if err != nil {
			return err
		}
		decode += d
		var h tracelog.Header
		var evs []tracelog.Event
		d, err = timeIt(func() (err error) {
			h, evs, err = tracelog.ReadAll(bytes.NewReader(l.data))
			return err
		})
		if err != nil {
			return err
		}
		readAll += d
		start := time.Now()
		capacity := tracelog.Summarize(h, evs).MaxLiveBytes / 2
		summarize += time.Since(start)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d, err = timeIt(func() error {
			if _, err := sim.ReplayUnified(l.name, evs, capacity, model); err != nil {
				return err
			}
			_, err := sim.ReplayGenerational(l.name, evs, core.Layout451045Threshold1(capacity), model)
			return err
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		replay += d
		replayed += 2 * uint64(len(evs))
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	n := float64(len(logs))
	rep.set("tracelog.readall_s", readAll.Seconds()/n)
	rep.set("tracelog.decode_s", decode.Seconds()/n)
	rep.set("tracelog.decode_mb_per_s", ratio(float64(logBytes)/1e6, decode.Seconds()))
	rep.set("tracelog.summarize_s", summarize.Seconds()/n)
	rep.set("sim.replay_s", replay.Seconds()/n)
	rep.set("sim.replay_events_per_s", ratio(float64(replayed), replay.Seconds()))
	rep.set("sim.alloc_bytes_per_event", ratio(float64(allocBytes), float64(replayed)))
	return nil
}

// decodeLog times the block decoder over a whole log.
func decodeLog(data []byte) (time.Duration, error) {
	start := time.Now()
	lr, err := tracelog.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	b := tracelog.GetBlock()
	defer tracelog.PutBlock(b)
	for {
		err := lr.NextBlock(b)
		if errors.Is(err, io.EOF) {
			return time.Since(start), nil
		}
		if err != nil {
			return 0, err
		}
	}
}
