// Command gencache regenerates the paper's tables and figures.
//
// Usage:
//
//	gencache [-scale f] [-bench a,b,c] [-run table1,fig1,...|all] [-parallel n] [-timeout d]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Each experiment prints the same rows/series the paper reports, derived
// from one unbounded-cache run per benchmark followed by log replays
// through the cache configurations under study.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/profiling"
)

var experimentOrder = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig6",
	"fig9", "fig10", "table2", "fig11", "cycles", "sweep", "capsweep", "ablations", "adaptive", "policyselect", "optimpact", "robustness", "shared",
}

func main() {
	scale := flag.Float64("scale", 0.125, "code-size scale factor (1.0 = paper-sized workloads)")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all 32)")
	run := flag.String("run", "all", "experiments to run: all, or a comma list of "+strings.Join(experimentOrder, ","))
	verbose := flag.Bool("v", false, "print per-benchmark collection progress")
	procs := flag.Int("procs", 4, "process count for the shared-vs-isolated experiment")
	seedOffset := flag.Int64("seedoffset", 0, "shift every benchmark's RNG seed (robustness checks)")
	parallel := flag.Int("parallel", 0, "worker pool size for collection and replays (0 = GOMAXPROCS, 1 = sequential); results are identical at every level")
	timeout := flag.Duration("timeout", 0, "abort the run after this long, e.g. 10m (0 = no limit)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	listPolicies := flag.Bool("policies", false, "list the local-policy registry (the policyselect candidate zoo) and exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("gencache"))
		return
	}
	if *listPolicies {
		fmt.Print(policy.Describe())
		return
	}
	if err := pipeline.Validate(*parallel); err != nil {
		fmt.Fprintf(os.Stderr, "gencache: invalid -parallel value: %v\n", err)
		os.Exit(2)
	}
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gencache:", err)
		os.Exit(2)
	}
	stopProfiles = stop
	defer stopProfiles()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	want := map[string]bool{}
	if *run == "all" {
		for _, e := range experimentOrder {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*run, ",") {
			e = strings.TrimSpace(e)
			if e == "" {
				continue
			}
			ok := false
			for _, known := range experimentOrder {
				if e == known {
					ok = true
					break
				}
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "gencache: unknown experiment %q\n", e)
				os.Exit(2)
			}
			want[e] = true
		}
	}

	// Table 1 and Table 2 need no simulation.
	if want["table1"] {
		section("Table 1: interactive Windows benchmarks")
		fmt.Print(experiments.RenderTable1(experiments.Table1()))
	}

	needSim := false
	for e := range want {
		if e != "table1" && e != "table2" {
			needSim = true
		}
	}

	opts := experiments.Options{Scale: *scale, SeedOffset: *seedOffset, Parallel: *parallel}
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
	}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, "collected "+s) }
	}

	var suite *experiments.Suite
	if needSim {
		start := time.Now()
		var err error
		suite, err = experiments.CollectContext(ctx, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "collected %d benchmarks at scale %g in %v\n",
			len(suite.Runs), *scale, time.Since(start).Round(time.Millisecond))
	}

	if want["fig1"] {
		section("Figure 1: maximum code cache size (unbounded), rescaled to full size")
		fmt.Print(experiments.RenderFigure1(experiments.Figure1(suite)))
	}
	if want["fig2"] {
		section("Figure 2: code expansion (Equation 1)")
		fmt.Print(experiments.RenderFigure2(experiments.Figure2(suite)))
	}
	if want["fig3"] {
		section("Figure 3: trace insertion rate, rescaled to full size")
		fmt.Print(experiments.RenderFigure3(experiments.Figure3(suite)))
	}
	if want["fig4"] {
		section("Figure 4: trace bytes deleted due to unmapped memory")
		fmt.Print(experiments.RenderFigure4(experiments.Figure4(suite)))
	}
	if want["fig6"] {
		section("Figure 6: trace lifetimes (Equation 2)")
		fmt.Print(experiments.RenderFigure6(experiments.Figure6(suite)))
	}

	var fig9 experiments.Figure9Result
	if want["fig9"] || want["fig10"] || want["cycles"] {
		var err error
		fig9, err = experiments.Figure9(suite)
		if err != nil {
			fatal(err)
		}
	}
	if want["fig9"] {
		section("Figure 9: miss-rate reduction of generational layouts over a unified cache")
		fmt.Print(experiments.RenderFigure9(fig9))
	}
	if want["fig10"] {
		section("Figure 10: cache misses eliminated (45-10-45 @1)")
		fmt.Print(experiments.RenderFigure10(fig9))
	}
	if want["table2"] {
		section("Table 2: overheads used in the evaluation")
		fmt.Print(experiments.RenderTable2(experiments.Table2(opts.ModelOrDefault())))
	}
	if want["fig11"] {
		section("Figure 11: instruction-overhead ratio (Equation 3), 45-10-45 @1")
		res, err := experiments.Figure11(suite)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderFigure11(res))
	}
	if want["cycles"] {
		section("Section 6.2: estimated cycle impact of eliminated misses (45-10-45 @1)")
		fmt.Print(experiments.RenderCycleImpact(experiments.CycleImpact(suite, fig9)))
	}
	if want["sweep"] {
		section("Section 6.1: configuration sweep (proportions x promotion threshold)")
		res, err := experiments.Sweep(suite)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderSweep(res))
		fmt.Println()
		fmt.Println("probation-size vs threshold interaction:")
		for _, l := range experiments.ProbationThresholdLink(res) {
			fmt.Printf("  probation %4.0f%%: best threshold %2d (%+.1f%%), worst threshold %2d (%+.1f%%)\n",
				l.ProbationFrac*100, l.BestThreshold, l.AvgAtBest*100, l.WorstThreshold, l.AvgAtWorst*100)
		}
	}
	if want["capsweep"] {
		section("Extension: capacity sensitivity (miss rate vs cache size)")
		points, err := experiments.CapacitySweep(suite, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderCapacitySweep(points))
	}
	if want["optimpact"] {
		section("Extension: trace-optimizer impact (engine runs, optimizer off vs on)")
		names := []string{"gzip", "gcc", "solitaire", "word"}
		if *benchList != "" {
			names = strings.Split(*benchList, ",")
		}
		rows, err := experiments.OptimizerImpactContext(ctx, names, *scale, *parallel)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderOptimizerImpact(rows))
	}
	if want["robustness"] {
		section("Extension: seed robustness of the headline comparison")
		names := []string{"gzip", "gcc", "crafty", "solitaire", "word", "acroread"}
		if *benchList != "" {
			names = strings.Split(*benchList, ",")
		}
		res, err := experiments.RobustnessContext(ctx, names, *scale, []int64{0, 1000, 2000}, *parallel)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderRobustness(res))
	}
	if want["shared"] {
		section(fmt.Sprintf("Extension: %d isolated engines vs %d processes over one shared persistent tier", *procs, *procs))
		rows, err := experiments.SharedVsIsolated(suite, *procs)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderSharedVsIsolated(rows))
	}
	if want["adaptive"] {
		section("Extension: adaptive split controller vs the Figure 9 static layouts")
		rows, err := experiments.AdaptiveVsStatic(suite)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderAdaptiveVsStatic(rows))
	}
	if want["policyselect"] {
		section("Extension: online policy selection vs the static policy zoo")
		rows, err := experiments.PolicySelection(suite)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderPolicySelection(rows))
	}
	if want["ablations"] {
		section("Ablations: design variants vs the paper's 45-10-45 @1")
		rows, err := experiments.Ablations(suite)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderAblations(rows))
	}
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

// stopProfiles flushes any active pprof profiles; fatal must call it
// explicitly because os.Exit skips deferred calls.
var stopProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gencache:", err)
	stopProfiles()
	os.Exit(1)
}
