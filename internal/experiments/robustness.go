package experiments

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Seed robustness: the calibrated profiles use fixed RNG seeds. This
// experiment re-runs the headline comparison (45-10-45 @1 vs unified at
// half the unbounded footprint) across several seed offsets and reports the
// spread, demonstrating that the reproduction's conclusion is a property of
// the workload *shape*, not of particular random draws.

// RobustnessPoint is one seed offset's headline numbers.
type RobustnessPoint struct {
	SeedOffset   int64
	AvgReduction float64 // unweighted mean miss-rate reduction
	Benchmarks   int
}

// RobustnessResult aggregates the study.
type RobustnessResult struct {
	Points []RobustnessPoint
	Mean   float64
	StdDev float64
	AllWin bool // every seed produced a positive average reduction
}

// Robustness collects the named benchmarks at each seed offset and replays
// the headline comparison.
func Robustness(benchmarks []string, scale float64, offsets []int64) (RobustnessResult, error) {
	return RobustnessContext(context.Background(), benchmarks, scale, offsets, 0)
}

// RobustnessContext is Robustness on an explicit context and parallelism
// level. Offsets stay sequential (each builds on a full collection pass);
// within an offset, collection and the per-benchmark replays run on the
// pipeline.
func RobustnessContext(ctx context.Context, benchmarks []string, scale float64, offsets []int64, parallel int) (RobustnessResult, error) {
	if err := pipeline.Validate(parallel); err != nil {
		return RobustnessResult{}, err
	}
	if len(offsets) == 0 {
		offsets = []int64{0, 1000, 2000}
	}
	var res RobustnessResult
	var avgs []float64
	for _, off := range offsets {
		suite, err := CollectContext(ctx, Options{
			Scale: scale, Benchmarks: benchmarks, SeedOffset: off, Parallel: parallel,
		})
		if err != nil {
			return res, err
		}
		avg, n, err := headlineMean(suite)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, RobustnessPoint{SeedOffset: off, AvgReduction: avg, Benchmarks: n})
		avgs = append(avgs, avg)
	}
	res.Mean = stats.Mean(avgs)
	res.StdDev = stats.StdDev(avgs)
	res.AllWin = true
	for _, a := range avgs {
		if a <= 0 {
			res.AllWin = false
		}
	}
	return res, nil
}

// RenderRobustness renders the study as text.
func RenderRobustness(res RobustnessResult) string {
	t := stats.NewTable("SeedOffset", "Benchmarks", "AvgMissRateReduction")
	for _, p := range res.Points {
		t.AddRow(fmt.Sprintf("%d", p.SeedOffset), fmt.Sprintf("%d", p.Benchmarks),
			fmt.Sprintf("%+.1f%%", p.AvgReduction*100))
	}
	t.AddRow("(mean ± std)", "", fmt.Sprintf("%+.1f%% ± %.1f%%", res.Mean*100, res.StdDev*100))
	return t.String()
}

// headlineMean averages the headline comparison's miss-rate reduction over
// the suite's logs whose baseline misses, and returns how many logs that
// was.
func headlineMean(s *Suite) (float64, int, error) {
	m, err := replayMatrix(s, halfPeak, noGraph, headline, reductionsVsBaseline)
	if err != nil {
		return 0, 0, err
	}
	return means(m[0], 1)[0], len(m[0]), nil
}
