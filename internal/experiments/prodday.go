package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dayload"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workload"
)

// Production-day A/B: the same declarative day (diurnal two-benchmark mix,
// a 4am deploy, an evening flash crowd) replayed under an autoscaled,
// load-reactive configuration and under a sweep of static configurations —
// static admission limits and static tier splits. Every arm is its own
// server on its own virtual clock over identical input bytes, so arms are
// independent and the comparison is deterministic at any parallelism.
//
// The claim under test is the operational form of the paper's thesis:
// reacting to load beats provisioning for it. The autoscaled arm must end
// the day on the right side of every static arm — strictly better service
// than every arm provisioned at or below its own time-averaged footprint,
// and no worse service than arms provisioned above it (which it beats on
// memory by construction).

// ProductionDayOptions configures the study.
type ProductionDayOptions struct {
	// Seed drives the day's arrival schedule (default 42).
	Seed int64
	// Sessions is the day's total session count (default 40).
	Sessions int
	// TimeScale compresses the declared 24h day (default 720: a 2-minute
	// virtual day).
	TimeScale float64
	// Scale is the workload synthesis scale (default 0.02).
	Scale float64
	// Verify replays every served session offline and counts divergences.
	Verify bool
	// Why attaches the attribution ledger to every arm's sessions: timeline
	// rows carry per-interval miss-cause columns, each day report ends with
	// conserved cause totals, and the study fails if any arm's causes do not
	// conserve against its regenerations.
	Why bool
	// Parallel bounds the arm pool (0 = GOMAXPROCS, 1 = sequential). Arms
	// are independent servers, so parallelism cannot change any result.
	Parallel int
	// Progress, when non-nil, receives one line per finished arm, in arm
	// order.
	Progress func(string)
}

func (o ProductionDayOptions) withDefaults() ProductionDayOptions {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Sessions == 0 {
		o.Sessions = 40
	}
	if o.TimeScale == 0 {
		o.TimeScale = 720
	}
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	return o
}

// ProductionDayVerdict is one static arm's comparison against the
// autoscaled arm.
type ProductionDayVerdict struct {
	Arm       string
	AutoBeats bool
	Reason    string
}

// ProductionDayResult is the study's outcome.
type ProductionDayResult struct {
	// Auto is the autoscaled, load-reactive arm's day.
	Auto *dayload.Result
	// Statics are the static arms' days, in sweep order.
	Statics []*dayload.Result
	// Verdicts compare each static arm against Auto.
	Verdicts []ProductionDayVerdict
	// AutoWins reports the headline: the autoscaled arm beat every static
	// arm, resized at least once, and (under Verify) diverged from offline
	// replay zero times.
	AutoWins bool
}

// productionDayArms is the sweep: the autoscaled hero arm first, then
// static admission sizes bracketing it, then static-split variants at the
// middle size. Arms share the Logs map (identical input bytes) and differ
// only in configuration.
func productionDayArms(o ProductionDayOptions, logs map[string][]byte) []dayload.Options {
	auto := dayload.Options{
		Slots: 2,
		Queue: 4,
		Autoscale: &server.AutoscaleConfig{
			MinSlots: 1,
			MaxSlots: 8,
		},
		TickEvery:    5 * time.Minute,
		LoadReactive: true,
		Verify:       o.Verify,
		Attrib:       o.Why,
		Logs:         logs,
	}
	arms := []dayload.Options{auto}
	for _, slots := range []int{1, 2, 4, 8} {
		arms = append(arms, dayload.Options{
			Slots: slots, Queue: 2 * slots, Verify: o.Verify, Attrib: o.Why, Logs: logs,
		})
	}
	for _, layout := range []string{"60-10-30", "30-10-60"} {
		arms = append(arms, dayload.Options{
			Slots: 4, Queue: 8, Layout: layout, Verify: o.Verify, Attrib: o.Why, Logs: logs,
		})
	}
	return arms
}

// ProductionDay runs the study.
func ProductionDay(opts ProductionDayOptions) (ProductionDayResult, error) {
	return ProductionDayContext(context.Background(), opts)
}

// ProductionDayContext is ProductionDay on an explicit context.
func ProductionDayContext(ctx context.Context, opts ProductionDayOptions) (ProductionDayResult, error) {
	opts = opts.withDefaults()
	if err := pipeline.Validate(opts.Parallel); err != nil {
		return ProductionDayResult{}, err
	}
	spec := dayload.StandardDay(opts.Seed, opts.Sessions)
	spec.TimeScale = opts.TimeScale
	spec.Scale = opts.Scale

	// One synthesis pass shared by every arm: identical input bytes.
	logs := make(map[string][]byte)
	for _, b := range []string{"gzip", "word", "solitaire"} {
		data, err := workload.SyntheticLog(b, spec.Scale)
		if err != nil {
			return ProductionDayResult{}, err
		}
		logs[b] = data
	}

	arms := productionDayArms(opts, logs)
	jobs := make([]pipeline.Job[*dayload.Result], len(arms))
	for i, arm := range arms {
		arm := arm
		jobs[i] = pipeline.Job[*dayload.Result]{
			Name: dayload.ArmName(arm),
			Run: func(ctx context.Context) (*dayload.Result, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return dayload.Run(spec, arm)
			},
		}
	}
	popts := pipeline.Options{Parallel: opts.Parallel}
	if opts.Progress != nil {
		popts.Progress = func(name string, index, total int) {
			opts.Progress(fmt.Sprintf("[%d/%d] day arm %s done", index+1, total, name))
		}
	}
	results, err := pipeline.Map(ctx, popts, jobs)
	if err != nil {
		return ProductionDayResult{}, err
	}

	res := ProductionDayResult{Auto: results[0], Statics: results[1:]}
	res.AutoWins = res.Auto.Resizes > 0 && res.Auto.VerifyFailed == 0 && res.Auto.Failures == 0
	if opts.Why && !res.Auto.CausesConserved() {
		res.AutoWins = false
	}
	for _, st := range res.Statics {
		v := compareArms(res.Auto, st)
		res.Verdicts = append(res.Verdicts, v)
		if !v.AutoBeats || st.VerifyFailed > 0 || st.Failures > 0 {
			res.AutoWins = false
		}
		if opts.Why && !st.CausesConserved() {
			res.AutoWins = false
		}
	}
	return res, nil
}

// compareArms decides whether the autoscaled arm beats one static arm. A
// static arm provisioned at or below the auto arm's time-averaged slot
// count must lose on service: strictly more 429s, or equal 429s and no
// better p95. A static arm provisioned above it already loses on memory, so
// it merely must not win on service: no fewer 429s.
func compareArms(auto, st *dayload.Result) ProductionDayVerdict {
	v := ProductionDayVerdict{Arm: st.Arm}
	if st.AvgSlots <= auto.AvgSlots {
		switch {
		case auto.Rejected < st.Rejected:
			v.AutoBeats = true
			v.Reason = fmt.Sprintf("fewer 429s (%d vs %d) at comparable memory (%.2f vs %.2f avg slots)",
				auto.Rejected, st.Rejected, auto.AvgSlots, st.AvgSlots)
		case auto.Rejected == st.Rejected && auto.P95Latency <= st.P95Latency:
			v.AutoBeats = true
			v.Reason = fmt.Sprintf("equal 429s (%d), lower p95 (%s vs %s)",
				auto.Rejected, auto.P95Latency, st.P95Latency)
		default:
			v.Reason = fmt.Sprintf("static wins service: %d vs %d 429s, p95 %s vs %s",
				st.Rejected, auto.Rejected, st.P95Latency, auto.P95Latency)
		}
		return v
	}
	if auto.Rejected <= st.Rejected {
		v.AutoBeats = true
		v.Reason = fmt.Sprintf("equal-or-fewer 429s (%d vs %d) at less memory (%.2f vs %.2f avg slots)",
			auto.Rejected, st.Rejected, auto.AvgSlots, st.AvgSlots)
	} else {
		v.Reason = fmt.Sprintf("static serves better: %d vs %d 429s", st.Rejected, auto.Rejected)
	}
	return v
}
