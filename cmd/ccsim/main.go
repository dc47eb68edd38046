// Command ccsim replays a cache-event log (produced by tracegen) through a
// chosen code-cache configuration — the second half of the paper's
// evaluation methodology (§6).
//
// Usage:
//
//	ccsim -log word.cclog [-capfrac 0.5] [-layout 45-10-45] [-threshold 1] [-parallel n] [-timeout d]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	ccsim -log word.cclog -unified
//	ccsim -log word.cclog -events events.jsonl
//	ccsim -log word.cclog -procs 4
//	ccsim -log word.cclog -tiers 30-10-20-40@1,2,4
//	ccsim -log word.cclog -adaptive -epoch 512
//	ccsim -log word.cclog -tiers 30@lru-70@trrip
//	ccsim -log word.cclog -policy auto
//	ccsim -policies
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/profiling"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracelog"
)

func main() {
	logPath := flag.String("log", "", "cache-event log path")
	capFrac := flag.Float64("capfrac", 0.5, "cache capacity as a fraction of the unbounded peak (the paper uses 0.5)")
	layout := flag.String("layout", "45-10-45", "nursery-probation-persistent percentages")
	threshold := flag.Uint64("threshold", 1, "probation promotion threshold")
	unified := flag.Bool("unified", false, "simulate only the unified baseline")
	tiers := flag.String("tiers", "", `replay an arbitrary tier graph instead of the stock generational chain, e.g. "30-10-20-40@1,2,4" (percentages, then per-edge promotion thresholds) or "30@lru-70@trrip" (per-tier policies)`)
	adaptive := flag.Bool("adaptive", false, "attach the adaptive split controller (re-balances tier capacities online)")
	epoch := flag.Uint64("epoch", 0, "accesses between adaptive controller decisions (0 = controller default)")
	policyFlag := flag.String("policy", "", `local-policy spec applied to every graph tier not already naming one ("lru", "trrip:cold=4", "auto" for online selection); implies the tier-graph replay path`)
	why := flag.Bool("why", false, "attach the attribution ledger and render the per-module miss-cause report; implies the tier-graph replay path")
	whyEpoch := flag.Uint64("whyepoch", 0, "attribution epoch in accesses for -why (0 = ledger default)")
	whyTop := flag.Int("whytop", 12, "modules shown in the -why report (0 = all)")
	selEpoch := flag.Uint64("selepoch", 0, "accesses between policy-selector decisions (0 = selector default)")
	listPolicies := flag.Bool("policies", false, "list the policy registry and exit")
	procs := flag.Int("procs", 1, "replay as this many processes over one shared persistent tier (1 = classic single-process replay)")
	stagger := flag.Int("stagger", 0, "with -procs > 1: admit process p after p*stagger total events (0 = auto)")
	parallel := flag.Int("parallel", 0, "worker pool size for the replays (0 = GOMAXPROCS, 1 = sequential); results are identical at every level")
	timeout := flag.Duration("timeout", 0, "abort the simulation after this long (0 = no limit)")
	eventsPath := flag.String("events", "", `dump the observer event stream as JSON lines to this file ("-" = stdout); forces -parallel 1 so the stream stays ordered`)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("ccsim"))
		return
	}
	if *listPolicies {
		fmt.Print(policy.Describe())
		return
	}
	if err := pipeline.Validate(*parallel); err != nil {
		fmt.Fprintf(os.Stderr, "ccsim: invalid -parallel value: %v\n", err)
		os.Exit(2)
	}
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stopProfiles()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "ccsim: -log is required")
		os.Exit(2)
	}
	if !api.ValidCapFrac(*capFrac) {
		fmt.Fprintln(os.Stderr, "ccsim: -capfrac must be above 0 and at most 16")
		os.Exit(2)
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	h, events, err := tracelog.ReadAll(f)
	if err != nil {
		fatal(err)
	}
	var dump *eventDumper
	if *eventsPath != "" {
		w := io.Writer(os.Stdout)
		if *eventsPath != "-" {
			ef, err := os.Create(*eventsPath)
			if err != nil {
				fatal(err)
			}
			defer ef.Close()
			w = ef
		} else {
			out = os.Stderr // keep the JSON stream on stdout uncontaminated
		}
		dump = &eventDumper{enc: json.NewEncoder(w)}
		*parallel = 1 // one replay at a time keeps the stream ordered
	}

	sum := tracelog.Summarize(h, events)
	capacity := uint64(float64(sum.MaxLiveBytes) * *capFrac)
	fmt.Fprintf(out, "%s: %s events, unbounded peak %s, simulated capacity %s\n",
		h.Benchmark, stats.FmtCount(uint64(len(events))), stats.FmtBytes(sum.MaxLiveBytes), stats.FmtBytes(capacity))

	// The second configuration resolves the flags the way gencached resolves
	// a session's query string: the stock generational chain, or a tier graph
	// when -tiers, -adaptive, -policy, or -why asks for one.
	settings := api.SessionConfig{
		Layout:     *layout,
		Threshold:  *threshold,
		Tiers:      *tiers,
		Policy:     *policyFlag,
		SelEpoch:   *selEpoch,
		Adaptive:   *adaptive,
		AdaptEpoch: *epoch,
		Attrib:     *why,
	}
	graphMode := *tiers != "" || *adaptive || *policyFlag != "" || *why
	if *threshold == 0 {
		fmt.Fprintln(os.Stderr, "ccsim: -threshold must be at least 1")
		os.Exit(2)
	}
	if *why && *unified {
		fmt.Fprintln(os.Stderr, "ccsim: -why attributes the tier-graph replay; it does not combine with -unified")
		os.Exit(2)
	}
	// A shared replay pools the last tier of a chain of at least two across
	// processes; the one-tier unified cache has no such tier to share.
	if *procs > 1 && (graphMode || *unified) {
		fmt.Fprintln(os.Stderr, "ccsim: -tiers, -adaptive, -policy, -why, and -unified do not combine with -procs")
		os.Exit(2)
	}
	spec, err := settings.GraphSpec(capacity, dump != nil)
	if err != nil {
		fatal(err)
	}
	if spec.Attrib != nil {
		spec.Attrib.Epoch = *whyEpoch
	}
	if *procs > 1 {
		if err := runShared(h.Benchmark, events, spec, *procs, *stagger, dump); err != nil {
			fatal(err)
		}
		return
	}
	if *procs < 1 {
		fmt.Fprintln(os.Stderr, "ccsim: -procs must be at least 1")
		os.Exit(2)
	}

	// job replays one configuration, its event dump tagged with the job's
	// name. The manager is built here rather than inside sim and, when mgr is
	// non-nil, kept there so its controller, selector, and ledger can be
	// reported afterwards.
	job := func(name string, spec core.GraphSpec, mgr **core.Graph) pipeline.Job[sim.Result] {
		return pipeline.Job[sim.Result]{Name: name, Run: func(context.Context) (sim.Result, error) {
			acc := costmodel.NewAccum(costmodel.DefaultModel)
			o := dump.forConfig(name)
			g, err := core.NewGraph(spec, obs.Combine(sim.CostObserver(acc), o))
			if err != nil {
				return sim.Result{}, err
			}
			if mgr != nil {
				*mgr = g
			}
			return sim.Replay(h.Benchmark, events, g, acc, o)
		}}
	}
	var graphMgr *core.Graph
	jobs := []pipeline.Job[sim.Result]{job("unified/pseudo-circular", core.UnifiedSpec(capacity, nil), nil)}
	if !*unified {
		// The name tags the event dump, which keeps telling the stock chain
		// ("generational") from a flag-shaped graph ("graph").
		name := "generational"
		if graphMode {
			name = "graph"
		}
		jobs = append(jobs, job(name, spec, &graphMgr))
	}
	results, err := pipeline.Map(ctx, pipeline.Options{Parallel: *parallel}, jobs)
	if err != nil {
		fatal(err)
	}

	u := results[0]
	report("unified/pseudo-circular", u)
	if *unified {
		return
	}
	g := results[1]
	report(g.Config, g)
	if graphMgr != nil {
		if as, ok := graphMgr.AdaptiveStats(); ok {
			caps := graphMgr.TierCapacities()
			parts := make([]string, len(caps))
			for i, c := range caps {
				parts[i] = fmt.Sprintf("%.0f", 100*float64(c)/float64(capacity))
			}
			fmt.Fprintf(out, "  adaptive: %d resizes (%d reversals, %d blocked) over %d epochs, final split %s\n",
				as.Resizes, as.Reversals, as.Blocked, as.Epochs, strings.Join(parts, "-"))
		}
		if ss, ok := graphMgr.SelectorStats(); ok {
			fmt.Fprintf(out, "  selector: %d switches (%d reversals) over %d epochs, live policies %s\n",
				ss.Switches, ss.Reversals, ss.Epochs, strings.Join(graphMgr.LivePolicies(), "-"))
		}
		if led := graphMgr.Ledger(); led != nil {
			snap := led.Snapshot()
			fmt.Fprintln(out)
			gate := uint64(0)
			for _, t := range spec.Tiers {
				if t.Threshold > 0 {
					gate = t.Threshold
					break
				}
			}
			if prem, middle, share := snap.PrematureShare(); middle > 0 && gate > 0 {
				fmt.Fprintf(out, "why: probation threshold %d deleted %d of %d middle-tier casualties (%.1f%%) that re-heated within %d epoch(s)\n",
					gate, prem, middle, share, snap.ReheatEpochs)
			}
			snap.WriteReport(out, *whyTop)
			if !snap.Conserved() || snap.Regens != g.Regenerations {
				fatal(fmt.Errorf("attribution conservation violated: %d cause counts, %d ledger regenerations, %d replay regenerations",
					snap.RegenCauses(), snap.Regens, g.Regenerations))
			}
		}
	}

	cmp := sim.Comparison{Unified: u, Generational: g}
	fmt.Fprintf(out, "\nmiss-rate reduction: %+.1f%%   misses eliminated: %d   overhead ratio: %.1f%%\n",
		cmp.MissRateReduction()*100, cmp.MissesEliminated(), cmp.OverheadRatio()*100)
}

// runShared is the -procs N>1 mode: the log is replayed once per simulated
// process over one shared persistent tier (later processes adopt published
// traces instead of regenerating them), and compared against the isolated
// aggregate — N independent replays, which all pay identical costs, so one
// replay scaled by N is exact.
func runShared(benchmark string, events []tracelog.Event, spec core.GraphSpec, procs, stagger int, dump *eventDumper) error {
	iso, err := sim.ReplayGraph(benchmark, events, spec, costmodel.DefaultModel)
	if err != nil {
		return err
	}
	sh, err := sim.ReplayShared(benchmark, events, spec, costmodel.DefaultModel, procs, stagger, dump.forConfig("shared"))
	if err != nil {
		return err
	}
	n := uint64(procs)
	isoGens := n * (iso.ColdCreates + iso.Regenerations)
	isoOverhead := float64(procs) * iso.Overhead.Total()

	fmt.Fprintf(out, "\nisolated aggregate (%d x %s)\n", procs, iso.Config)
	fmt.Fprintf(out, "  accesses %s   misses %s   miss rate %.3f%%\n",
		stats.FmtCount(n*iso.Accesses), stats.FmtCount(n*iso.Misses), 100*iso.MissRate())
	fmt.Fprintf(out, "  trace generations %s   overhead %.0f instructions   cache memory %s\n",
		stats.FmtCount(isoGens), isoOverhead, stats.FmtBytes(n*spec.TotalCapacity))

	fmt.Fprintf(out, "\n%s (%d procs over one shared persistent tier)\n", sh.Config, sh.Procs)
	fmt.Fprintf(out, "  accesses %s   misses %s   miss rate %.3f%%\n",
		stats.FmtCount(sh.Accesses), stats.FmtCount(sh.Misses), 100*sh.MissRate())
	fmt.Fprintf(out, "  trace generations %s   adoptions %s   overhead %.0f instructions   cache memory %s\n",
		stats.FmtCount(sh.Generations()), stats.FmtCount(sh.Adoptions), sh.Overhead.Total(), stats.FmtBytes(sh.CapacityBytes))
	fmt.Fprintf(out, "  shared tier: %s promotions, %s merged, %s adoptions, %s evicted, %s drained\n",
		stats.FmtCount(sh.Shared.Promotions), stats.FmtCount(sh.Shared.Merged), stats.FmtCount(sh.Shared.Adoptions),
		stats.FmtCount(sh.Shared.Evicted), stats.FmtCount(sh.Shared.Drained))

	saved := 0.0
	if isoGens > 0 {
		saved = 1 - float64(sh.Generations())/float64(isoGens)
	}
	fmt.Fprintf(out, "\ngenerations saved by sharing: %+.1f%% (equal aggregate memory)\n", saved*100)
	return nil
}

// out is where human-readable reporting goes; stderr when the JSON event
// stream owns stdout.
var out io.Writer = os.Stdout

// eventDumper renders the observer stream as JSON lines, one record per
// event, tagged with the replay configuration it came from.
type eventDumper struct {
	enc *json.Encoder
}

type eventRecord struct {
	Config string `json:"config"`
	Kind   string `json:"kind"`
	Proc   int    `json:"proc,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Size   uint64 `json:"size,omitempty"`
	Module uint16 `json:"module,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Done   uint64 `json:"done,omitempty"`
	Total  uint64 `json:"total,omitempty"`
	Policy string `json:"policy,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// forConfig returns an observer writing records tagged with config, or nil
// when no dump was requested (a nil *eventDumper is valid).
func (d *eventDumper) forConfig(config string) obs.Observer {
	if d == nil {
		return nil
	}
	return obs.Func(func(e obs.Event) {
		rec := eventRecord{Config: config, Kind: e.Kind.String(), Proc: e.Proc, Trace: e.Trace, Size: e.Size, Module: e.Module}
		switch e.Kind {
		case obs.KindEvict, obs.KindUnmap, obs.KindFlush, obs.KindResize:
			rec.From = e.From.String()
		case obs.KindInsert:
			rec.To = e.To.String()
		case obs.KindPromote:
			rec.From, rec.To = e.From.String(), e.To.String()
		case obs.KindProgress:
			rec.Done, rec.Total = e.Done, e.Total
		case obs.KindPolicySwitch:
			rec.From, rec.Policy = e.From.String(), e.Policy
		case obs.KindRegenerate:
			rec.From, rec.Reason = e.From.String(), e.Reason.String()
		}
		if err := d.enc.Encode(rec); err != nil {
			fatal(err)
		}
	})
}

func report(name string, r sim.Result) {
	fmt.Fprintf(out, "\n%s\n", name)
	fmt.Fprintf(out, "  accesses %s   hits %s   misses %s   miss rate %.3f%%\n",
		stats.FmtCount(r.Accesses), stats.FmtCount(r.Hits), stats.FmtCount(r.Misses), 100*r.MissRate())
	fmt.Fprintf(out, "  regenerations %s   forced deletions %s\n",
		stats.FmtCount(r.Regenerations), stats.FmtCount(r.ForcedDeletes))
	fmt.Fprintf(out, "  overhead: %.0f instructions (%s trace gens, %s evictions, %s promotions)\n",
		r.Overhead.Total(), stats.FmtCount(r.Overhead.TraceGens),
		stats.FmtCount(r.Overhead.Evictions), stats.FmtCount(r.Overhead.Promotions))
}

// stopProfiles flushes any active pprof profiles; fatal must call it
// explicitly because os.Exit skips deferred calls.
var stopProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccsim:", err)
	stopProfiles()
	os.Exit(1)
}
