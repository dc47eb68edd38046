// Package experiments regenerates every table and figure of the paper's
// evaluation. Collect performs the expensive part once per benchmark — an
// unbounded-cache engine run that produces the cache event log, exactly the
// paper's methodology (§6) — and the per-figure functions derive their rows
// from the collected artifacts, replaying logs through cache configurations
// where needed.
package experiments

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// Options configures a collection pass.
type Options struct {
	// Scale shrinks every benchmark's code-size target; results that scale
	// with code size are rescaled by 1/Scale when reported. Default 0.125.
	Scale float64
	// Benchmarks restricts the set (nil = all 32).
	Benchmarks []string
	// SeedOffset shifts every profile's RNG seed, for checking that results
	// are not artifacts of the particular calibrated seeds.
	SeedOffset int64
	// Model is the overhead model (zero value = Table 2 defaults).
	Model *costmodel.Model
	// Parallel bounds the worker pool for collection and for every figure
	// pipeline derived from the collected suite. 0 means GOMAXPROCS; 1
	// preserves exact sequential behaviour. Negative values are rejected.
	Parallel int
	// Progress, when non-nil, receives one line per completed benchmark,
	// always in benchmark order.
	Progress func(string)
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 0.125
	}
	return o.Scale
}

func (o Options) model() costmodel.Model {
	if o.Model != nil {
		return *o.Model
	}
	return costmodel.DefaultModel
}

// ModelOrDefault returns the configured cost model, defaulting to Table 2.
func (o Options) ModelOrDefault() costmodel.Model { return o.model() }

// Run is one benchmark's unbounded-run artifacts.
type Run struct {
	Profile   workload.Profile // scaled profile actually executed
	Unscaled  workload.Profile
	Stats     dbt.RunStats
	Events    []tracelog.Event
	Summary   tracelog.Summary
	Lifetimes *stats.Lifetimes
	Footprint uint64
}

// MaxTraceBytes is the peak live trace-cache size of the unbounded run —
// the paper's maxCache, from which every simulated capacity derives.
func (r *Run) MaxTraceBytes() uint64 { return r.Summary.MaxLiveBytes }

// Suite holds every benchmark's artifacts for one collection pass.
type Suite struct {
	Scale float64
	Model costmodel.Model
	// Parallel bounds the worker pool of every figure pipeline derived from
	// this suite (0 = GOMAXPROCS, 1 = sequential). Because every replay job
	// owns its own manager and accumulator, figure results are identical at
	// every parallelism level.
	Parallel int
	Runs     []*Run
	byName   map[string]*Run

	// ctx is the collection context; figure pipelines inherit it so a
	// CLI-level timeout covers the derived replays too. Cancellation is
	// observed between jobs, not inside a replay.
	ctx context.Context
}

func (s *Suite) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// perRun executes fn once per collected benchmark through the experiment
// pipeline, returning results in run order. Studies that compare cache
// configurations go through replayMatrix instead; the shared-tier study,
// which runs engines rather than replays, uses this.
func perRun[T any](s *Suite, fn func(r *Run) (T, error)) ([]T, error) {
	jobs := make([]pipeline.Job[T], len(s.Runs))
	for i, r := range s.Runs {
		jobs[i] = pipeline.Job[T]{
			Name: r.Profile.Name,
			Run:  func(context.Context) (T, error) { return fn(r) },
		}
	}
	return pipeline.Map(s.context(), pipeline.Options{Parallel: s.Parallel}, jobs)
}

// Get returns a benchmark's run.
func (s *Suite) Get(name string) (*Run, bool) {
	r, ok := s.byName[name]
	return r, ok
}

// SpecRuns returns the SPEC2000 runs in profile order.
func (s *Suite) SpecRuns() []*Run { return s.bySuite(true) }

// InteractiveRuns returns the interactive runs in profile order.
func (s *Suite) InteractiveRuns() []*Run { return s.bySuite(false) }

func (s *Suite) bySuite(spec bool) []*Run {
	var out []*Run
	for _, r := range s.Runs {
		isSpec := r.Profile.Suite == workload.SuiteSpecInt || r.Profile.Suite == workload.SuiteSpecFP
		if isSpec == spec {
			out = append(out, r)
		}
	}
	return out
}

// Collect synthesizes and runs every requested benchmark under an unbounded
// trace cache, capturing the event log, lifetimes, and engine statistics.
func Collect(opts Options) (*Suite, error) {
	return CollectContext(context.Background(), opts)
}

// CollectContext is Collect bounded by a context: collection jobs (one per
// benchmark, each with its own seeded RNG and engine) run on the pipeline's
// worker pool, and figure pipelines derived from the suite inherit ctx.
func CollectContext(ctx context.Context, opts Options) (*Suite, error) {
	if err := pipeline.Validate(opts.Parallel); err != nil {
		return nil, err
	}
	scale := opts.scale()
	suite := &Suite{
		Scale: scale, Model: opts.model(), Parallel: opts.Parallel,
		byName: make(map[string]*Run), ctx: ctx,
	}

	profiles := workload.All()
	if opts.Benchmarks != nil {
		var sel []workload.Profile
		for _, name := range opts.Benchmarks {
			p, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
			}
			sel = append(sel, p)
		}
		profiles = sel
	}

	done := make([]*Run, len(profiles)) // each job writes only its own index
	jobs := make([]pipeline.Job[*Run], len(profiles))
	for i, p := range profiles {
		p.Seed += opts.SeedOffset
		i, p := i, p
		jobs[i] = pipeline.Job[*Run]{
			Name: p.Name,
			Run: func(context.Context) (*Run, error) {
				run, err := collectOne(p, scale, suite.Model, false)
				if err == nil {
					done[i] = run
				}
				return run, err
			},
		}
	}
	popts := pipeline.Options{Parallel: opts.Parallel}
	if opts.Progress != nil {
		// The pipeline reports completions in benchmark order, so progress
		// output is identical at every parallelism level.
		progress := opts.Progress
		popts.Progress = func(_ string, index, _ int) {
			run := done[index]
			progress(fmt.Sprintf("%-12s %9d events, %7s traces",
				run.Profile.Name, len(run.Events), stats.FmtBytes(run.Stats.TraceBytes)))
		}
	}
	runs, err := pipeline.Map(ctx, popts, jobs)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		suite.Runs = append(suite.Runs, run)
		suite.byName[run.Profile.Name] = run
	}
	return suite, nil
}

// collectOne runs one benchmark under an unbounded cache. slow selects the
// engine's map-based reference dispatch (dbt.Config.SlowDispatch); only the
// fast/slow equivalence test sets it.
func collectOne(p workload.Profile, scale float64, model costmodel.Model, slow bool) (*Run, error) {
	scaled := p.Scaled(scale)
	bench, err := workload.Synthesize(scaled)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	lt := stats.NewLifetimes()
	st, n, err := bench.Collect(&buf, dbt.Config{Model: &model, Lifetimes: lt, SlowDispatch: slow})
	if err != nil {
		return nil, fmt.Errorf("experiments: running %s: %w", p.Name, err)
	}
	h, events, err := tracelog.AppendAll(make([]tracelog.Event, 0, n), &buf)
	if err != nil {
		return nil, fmt.Errorf("experiments: decoding %s log: %w", p.Name, err)
	}
	return &Run{
		Profile:   scaled,
		Unscaled:  p,
		Stats:     st,
		Events:    events,
		Summary:   tracelog.Summarize(h, events),
		Lifetimes: lt,
		Footprint: bench.Image.Footprint(),
	}, nil
}

// rescale converts a size measured at the suite's scale back to full-size
// units for comparison against the paper's absolute numbers.
func (s *Suite) rescale(v float64) float64 { return v / s.Scale }
