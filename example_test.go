package repro_test

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// Example runs the paper's methodology end to end on the smallest
// interactive benchmark: one unbounded engine run captures the cache-event
// log, and the log replays under a unified cache and the paper's best
// generational layout at half the unbounded footprint.
func Example() {
	profile, _ := repro.BenchmarkByName("solitaire")
	profile = profile.Scaled(0.05)
	profile.Seed = 210 // deterministic

	bench, err := repro.Synthesize(profile)
	if err != nil {
		log.Fatal(err)
	}

	var buf bytes.Buffer
	w, err := repro.NewLogWriter(&buf, profile.Name, profile.DurationMicros())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{
		Manager: repro.NewUnified(1<<40, nil),
		Log:     w,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(bench.NewDriver(), 0); err != nil {
		log.Fatal(err)
	}

	_, events, err := repro.ReadLog(&buf)
	if err != nil {
		log.Fatal(err)
	}
	capacity := repro.UnboundedPeak(events) / 2
	cmp, err := repro.Compare(profile.Name, events, repro.BestLayout(capacity))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("generational beats unified: %v\n", cmp.MissesEliminated() > 0)
	fmt.Printf("overhead ratio below 100%%:  %v\n", cmp.OverheadRatio() < 1)
	// Output:
	// generational beats unified: true
	// overhead ratio below 100%:  true
}

// Example_quickstart is the end-to-end pipeline in one page: synthesize a
// benchmark, run it under the dynamic optimizer with the paper's
// generational code cache, and print what happened.
func Example_quickstart() {
	// Pick a benchmark: solitaire, the smallest interactive application of
	// Table 1, scaled down 8x so this runs in well under a second.
	profile, ok := repro.BenchmarkByName("solitaire")
	if !ok {
		log.Fatal("benchmark missing")
	}
	profile = profile.Scaled(0.125)

	bench, err := repro.Synthesize(profile)
	if err != nil {
		log.Fatal(err)
	}
	kb := func(n uint64) string { return fmt.Sprintf("%.1f KB", float64(n)/1024) }
	fmt.Printf("synthesized %s: %d functions, %s of code across %d modules\n",
		profile.Name, bench.NumFunctions(), kb(bench.Image.Footprint()), len(bench.Image.Modules))

	// A generational trace cache: 45% nursery, 10% probation, 45%
	// persistent, single-hit promotion — the paper's best configuration.
	// Capacity is deliberately tight (128 KB) so the caches have to work.
	// A custom observer on the manager's event bus counts inserts,
	// promotions by destination and capacity evictions as they happen.
	var inserts, toProbation, toPersistent, evictions, probationDeaths int
	counter := repro.ObserverFunc(func(e repro.CacheEvent) {
		switch e.Kind {
		case repro.EventInsert:
			inserts++
		case repro.EventPromote:
			if e.To == repro.LevelProbation {
				toProbation++
			} else {
				toPersistent++
			}
		case repro.EventEvict:
			evictions++
			if e.From == repro.LevelProbation {
				probationDeaths++
			}
		}
	})
	mgr, err := repro.NewTierGraph(repro.BestLayout(128<<10), counter)
	if err != nil {
		log.Fatal(err)
	}

	engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{Manager: mgr})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(bench.NewDriver(), 0); err != nil {
		log.Fatal(err)
	}

	s := engine.Stats()
	fmt.Printf("\nexecuted %d guest blocks (%d instructions)\n", s.Blocks, s.GuestInstrs)
	fmt.Printf("basic-block cache: %d blocks, %s\n", s.BBCopied, kb(s.BBBytes))
	fmt.Printf("traces created:    %d (%s)\n", s.TracesCreated, kb(s.TraceBytes))
	fmt.Printf("trace accesses:    %d (%.2f%% misses)\n", s.Accesses, 100*s.MissRate())
	fmt.Printf("unmapped traces:   %d (%s) after DLL unloads\n", s.UnmappedTraces, kb(s.UnmappedBytes))
	fmt.Printf("promotions:        %d between generational caches\n", toProbation+toPersistent)
	fmt.Printf("evictions:         %d traces aged out entirely\n", evictions)

	fmt.Printf("\ngenerational manager: %d inserts, %d to probation, %d to persistent, %d probation deaths\n",
		inserts, toProbation, toPersistent, probationDeaths)
	// Output:
	// synthesized solitaire: 497 functions, 127.5 KB of code across 11 modules
	//
	// executed 1727199 guest blocks (6761351 instructions)
	// basic-block cache: 6235 blocks, 422.5 KB
	// traces created:    1492 (276.3 KB)
	// trace accesses:    117978 (0.46% misses)
	// unmapped traces:   228 (45.3 KB) after DLL unloads
	// promotions:        2152 between generational caches
	// evictions:         1121 traces aged out entirely
	//
	// generational manager: 2039 inserts, 1496 to probation, 656 to persistent, 793 probation deaths
}

// Example_interactive is the paper's headline experiment on its largest
// workload. Microsoft Word is the paper's most demanding benchmark: a
// 34.2 MB unbounded code cache, heavy DLL churn, and constant trace
// creation. This runs the word-like synthetic workload, captures its
// cache-event log, and compares a unified pseudo-circular cache against the
// generational design at half the unbounded footprint, reporting the three
// numbers the paper leads with: miss-rate reduction (Figure 9), misses
// eliminated (Figure 10), and the instruction-overhead ratio (Figure 11,
// Equation 3).
func Example_interactive() {
	profile, ok := repro.BenchmarkByName("word")
	if !ok {
		log.Fatal("benchmark missing")
	}
	profile = profile.Scaled(0.0625) // 1/16 size keeps this example snappy

	bench, err := repro.Synthesize(profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("word-like workload: %d functions, %d modules, %d phases of user activity\n",
		bench.NumFunctions(), len(bench.Image.Modules), profile.Phases)

	// Unbounded run: capture the verbose cache-event log.
	var buf bytes.Buffer
	w, err := repro.NewLogWriter(&buf, profile.Name, profile.DurationMicros())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{
		Manager: repro.NewUnified(1<<40, nil),
		Log:     w,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(bench.NewDriver(), 0); err != nil {
		log.Fatal(err)
	}
	mb := func(n uint64) float64 { return float64(n) / (1 << 20) }
	s := engine.Stats()
	fmt.Printf("unbounded run: %d traces created (%.1f MB), %d trace accesses, %.1f MB unmapped by DLL unloads\n",
		s.TracesCreated, mb(s.TraceBytes), s.Accesses, mb(s.UnmappedBytes))

	_, events, err := repro.ReadLog(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's comparison: capacity = half the unbounded footprint.
	peak := repro.UnboundedPeak(events)
	capacity := peak / 2
	fmt.Printf("\nsimulating at %.1f MB total cache (half the %.1f MB unbounded peak)\n\n",
		mb(capacity), mb(peak))

	cmp, err := repro.Compare(profile.Name, events, repro.BestLayout(capacity))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %12s %12s\n", "", "unified", "generational")
	fmt.Printf("%-28s %12d %12d\n", "trace-cache misses", cmp.Unified.Misses, cmp.Generational.Misses)
	fmt.Printf("%-28s %11.3f%% %11.3f%%\n", "miss rate", 100*cmp.Unified.MissRate(), 100*cmp.Generational.MissRate())
	fmt.Printf("%-28s %12s %12d\n", "promotions", "-", cmp.Generational.Overhead.Promotions)
	fmt.Printf("%-28s %12.0f %12.0f\n", "overhead (M instructions)",
		cmp.Unified.Overhead.Total()/1e6, cmp.Generational.Overhead.Total()/1e6)

	fmt.Printf("\nmiss-rate reduction: %+.1f%%   (paper average: 18%%)\n", 100*cmp.MissRateReduction())
	fmt.Printf("misses eliminated:   %d\n", cmp.MissesEliminated())
	fmt.Printf("overhead ratio:      %.1f%%  (paper geomean: 80.7%%; below 100%% is a win)\n",
		100*cmp.OverheadRatio())
	// Output:
	// word-like workload: 5622 functions, 51 modules, 50 phases of user activity
	// unbounded run: 17190 traces created (3.1 MB), 1414199 trace accesses, 0.5 MB unmapped by DLL unloads
	//
	// simulating at 1.3 MB total cache (half the 2.6 MB unbounded peak)
	//
	//                                   unified generational
	// trace-cache misses                  17822        10064
	// miss rate                          1.260%       0.712%
	// promotions                              -        30549
	// overhead (M instructions)            2081         1990
	//
	// miss-rate reduction: +43.5%   (paper average: 18%)
	// misses eliminated:   7758
	// overhead ratio:      95.6%  (paper geomean: 80.7%; below 100% is a win)
}

// Example_lifetimes reproduces the U-shaped trace-lifetime distribution of
// Figure 6 for one SPEC benchmark and one interactive application. A
// trace's lifetime (Equation 2) is the span between its first and last
// execution, as a fraction of the whole run. The paper's observation, that
// most traces live either under 20% or over 80% of the run, is what
// justifies generational code caches.
func Example_lifetimes() {
	for _, name := range []string{"gzip", "word"} {
		profile, ok := repro.BenchmarkByName(name)
		if !ok {
			log.Fatalf("unknown benchmark %q", name)
		}
		profile = profile.Scaled(0.0625)

		bench, err := repro.Synthesize(profile)
		if err != nil {
			log.Fatal(err)
		}
		lt := repro.NewLifetimes()
		// The unbounded cache is the one-tier graph: lifetime measurement
		// must see every trace's full life, so nothing may be evicted.
		unbounded, err := repro.NewTierGraph(repro.UnifiedGraphSpec(1<<40), nil)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{
			Manager:   unbounded,
			Lifetimes: lt,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := engine.Run(bench.NewDriver(), 0); err != nil {
			log.Fatal(err)
		}
		s := engine.Stats()

		fmt.Printf("%s (%s): %d traces\n\n", profile.Name, profile.Suite, lt.Len())
		h := lt.Histogram(float64(s.EndTime), 10)
		for i := 0; i < 10; i++ {
			frac := h.Fraction(i)
			bar := strings.Repeat("#", int(frac*60+0.5))
			// Trimmed: an empty bar would leave trailing spaces, which an
			// example's output comment cannot hold.
			fmt.Println(strings.TrimRight(fmt.Sprintf("  %3d-%3d%% lifetime  %5.1f%%  %s", i*10, (i+1)*10, frac*100, bar), " "))
		}
		short, mid, long := lt.Fractions(float64(s.EndTime), 0.2, 0.8)
		fmt.Printf("\n  short-lived (<20%%): %.1f%%   middle: %.1f%%   long-lived (>80%%): %.1f%%\n\n",
			short*100, mid*100, long*100)
	}
	fmt.Println("the extremes dominate: short-lived traces can be evicted cheaply from a")
	fmt.Println("nursery cache while long-lived traces deserve a persistent cache (paper §5.1)")
	// Output:
	// gzip (SPECint2000): 135 traces
	//
	//     0- 10% lifetime   54.1%  ################################
	//    10- 20% lifetime    5.2%  ###
	//    20- 30% lifetime    2.2%  #
	//    30- 40% lifetime    1.5%  #
	//    40- 50% lifetime    1.5%  #
	//    50- 60% lifetime    3.7%  ##
	//    60- 70% lifetime    0.0%
	//    70- 80% lifetime    1.5%  #
	//    80- 90% lifetime   14.1%  ########
	//    90-100% lifetime   16.3%  ##########
	//
	//   short-lived (<20%): 59.3%   middle: 10.4%   long-lived (>80%): 30.4%
	//
	// word (interactive): 17190 traces
	//
	//     0- 10% lifetime   63.8%  ######################################
	//    10- 20% lifetime    1.5%  #
	//    20- 30% lifetime    1.6%  #
	//    30- 40% lifetime    1.7%  #
	//    40- 50% lifetime    1.4%  #
	//    50- 60% lifetime    1.7%  #
	//    60- 70% lifetime    1.9%  #
	//    70- 80% lifetime    3.3%  ##
	//    80- 90% lifetime    7.6%  #####
	//    90-100% lifetime   15.5%  #########
	//
	//   short-lived (<20%): 65.3%   middle: 11.6%   long-lived (>80%): 23.1%
	//
	// the extremes dominate: short-lived traces can be evicted cheaply from a
	// nursery cache while long-lived traces deserve a persistent cache (paper §5.1)
}

// Example_policycompare runs local and global cache-management schemes head
// to head. One benchmark runs once under an unbounded cache to capture its
// event log (the paper's methodology); the log then replays through seven
// managers of identical capacity:
//
//   - unified + pseudo-circular (the paper's baseline, §4.3)
//   - unified + LRU
//   - unified + flush-when-full
//   - unified + preemptive flushing (Dynamo's scheme)
//   - generational 45-10-45 @1 (the paper's proposal, §5), built as a
//     three-tier graph
//   - a four-generation graph 30-10-20-40 @1,2: the tier-graph API is not
//     limited to the paper's three levels
//   - the same three-tier graph with the adaptive split controller attached
func Example_policycompare() {
	profile, ok := repro.BenchmarkByName("gcc")
	if !ok {
		log.Fatal("benchmark missing")
	}
	profile = profile.Scaled(0.125)

	bench, err := repro.Synthesize(profile)
	if err != nil {
		log.Fatal(err)
	}

	// Unbounded run -> event log.
	var buf bytes.Buffer
	w, err := repro.NewLogWriter(&buf, profile.Name, profile.DurationMicros())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{
		Manager: repro.NewUnified(1<<40, nil),
		Log:     w,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(bench.NewDriver(), 0); err != nil {
		log.Fatal(err)
	}
	_, events, err := repro.ReadLog(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Capacity: half the unbounded peak, as in §6.
	peak := repro.UnboundedPeak(events)
	capacity := peak / 2
	fmt.Printf("%s: %d events, unbounded peak %.1f KB, simulated capacity %.1f KB\n\n",
		profile.Name, len(events), float64(peak)/1024, float64(capacity)/1024)

	type entry struct {
		name string
		mgr  func(repro.Observer) *repro.TierGraph
	}
	// Every entry is a tier graph: a unified cache is one tier whose local
	// policy is named by its dash-free registry alias ("100@lru"), the
	// paper's generational chain is the stock three-tier shape, a
	// four-generation chain needs nothing but a longer spec string, and the
	// adaptive entry attaches the online split controller to the stock
	// shape.
	graph := func(tiers string, adaptive bool) func(repro.Observer) *repro.TierGraph {
		return func(h repro.Observer) *repro.TierGraph {
			spec, err := repro.ParseTierSpec(tiers, capacity)
			if err != nil {
				log.Fatal(err)
			}
			if adaptive {
				spec.Adaptive = &repro.AdaptiveConfig{Epoch: 512}
			}
			g, err := repro.NewTierGraph(spec, h)
			if err != nil {
				log.Fatal(err)
			}
			return g
		}
	}
	entries := []entry{
		{"unified pseudo-circular", graph("100@circ", false)},
		{"unified LRU", graph("100@lru", false)},
		{"unified flush-when-full", graph("100@flush", false)},
		{"unified preemptive-flush", graph("100@preflush", false)},
		{"generational 45-10-45@1", graph("45-10-45@1", false)},
		{"4-gen 30-10-20-40@1,2", graph("30-10-20-40@1,2", false)},
		{"adaptive 45-10-45@1", graph("45-10-45@1", true)},
	}

	fmt.Printf("%-26s %10s %10s %10s %12s\n", "manager", "accesses", "misses", "miss rate", "overhead")
	var baseline float64
	for i, e := range entries {
		// Each replay needs a fresh manager wired to a fresh cost
		// accumulator; ReplayWith does the pairing for any manager.
		res, err := repro.ReplayWith(profile.Name, events, e.mgr)
		if err != nil {
			log.Fatal(err)
		}
		total := res.Overhead.Total()
		if i == 0 {
			baseline = total
		}
		fmt.Printf("%-26s %10d %10d %9.3f%% %11.1f%%\n",
			e.name, res.Accesses, res.Misses, 100*res.MissRate(), 100*total/baseline)
	}
	fmt.Println("\noverhead is relative to the pseudo-circular baseline (lower is better).")
	fmt.Println("note: LRU's miss rate is strong but the Table 2 model does not charge its")
	fmt.Println("per-access bookkeeping or fragmentation walks — the very costs that made")
	fmt.Println("the paper's prior work reject LRU for real code caches (§4.2).")
	// Output:
	// gcc: 225449 events, unbounded peak 661.6 KB, simulated capacity 330.8 KB
	//
	// manager                      accesses     misses  miss rate     overhead
	// unified pseudo-circular        221906       3453     1.556%       100.0%
	// unified LRU                    221906        432     0.195%        55.3%
	// unified flush-when-full        221906       6190     2.789%       138.3%
	// unified preemptive-flush       221906      21890     9.865%       365.6%
	// generational 45-10-45@1        221906       1943     0.876%        97.6%
	// 4-gen 30-10-20-40@1,2          221906       1542     0.695%        95.4%
	// adaptive 45-10-45@1            221906       2271     1.023%       104.4%
	//
	// overhead is relative to the pseudo-circular baseline (lower is better).
	// note: LRU's miss rate is strong but the Table 2 model does not charge its
	// per-access bookkeeping or fragmentation walks — the very costs that made
	// the paper's prior work reject LRU for real code caches (§4.2).
}

// Example_persistcache keeps a cache across runs, the follow-on the paper's
// conclusion points toward. Long-lived traces dominate cache value, so keep
// them: after a "first launch" of an application, snapshot the generational
// manager's persistent cache; at the next launch, rebuild those traces
// against the program image and preload them, and their generation cost is
// simply gone.
func Example_persistcache() {
	p, ok := repro.BenchmarkByName("winzip")
	if !ok {
		log.Fatal("benchmark missing")
	}
	p = p.Scaled(0.0625)
	bench, err := repro.Synthesize(p)
	if err != nil {
		log.Fatal(err)
	}
	capacity := uint64(1 << 20)
	kb := func(n uint64) string { return fmt.Sprintf("%.1f KB", float64(n)/1024) }

	run := func(warm []byte) (repro.RunStats, []byte) {
		mgr, err := repro.NewTierGraph(repro.BestLayout(capacity), nil)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := repro.NewEngine(bench.Image, repro.EngineConfig{Manager: mgr})
		if err != nil {
			log.Fatal(err)
		}
		if warm != nil {
			img, err := repro.LoadPersistent(bytes.NewReader(warm))
			if err != nil {
				log.Fatal(err)
			}
			traces, rejected := repro.RebuildPersistent(img, bench.Image)
			if err := engine.Preload(traces); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("warm start: rebuilt %d persisted traces (%d rejected by validation)\n",
				len(traces), rejected)
		}
		if err := engine.Run(bench.NewDriver(), 0); err != nil {
			log.Fatal(err)
		}
		// Snapshot the persistent cache for the next launch.
		var buf bytes.Buffer
		if err := repro.SavePersistent(&buf, repro.SnapshotPersistent(p.Name, mgr, engine)); err != nil {
			log.Fatal(err)
		}
		return engine.Stats(), buf.Bytes()
	}

	fmt.Printf("%s-like workload, %s total generational cache\n\n", p.Name, kb(capacity))

	cold, file := run(nil)
	fmt.Printf("cold run:  %5d traces generated, %6.2f M overhead-free guest instructions, %d misses\n",
		cold.TracesCreated, float64(cold.GuestInstrs)/1e6, cold.Misses)
	fmt.Printf("snapshot:  %s written\n\n", kb(uint64(len(file))))

	warm, _ := run(file)
	fmt.Printf("warm run:  %5d traces generated (%d fewer), %d misses\n",
		warm.TracesCreated, cold.TracesCreated-warm.TracesCreated, warm.Misses)

	saved := float64(cold.TracesCreated-warm.TracesCreated) * repro.DefaultCostModel.TraceGen(242)
	fmt.Printf("\nestimated startup work avoided: ~%.1f M instructions of trace generation\n", saved/1e6)
	// Output:
	// winzip-like workload, 1024.0 KB total generational cache
	//
	// cold run:   2959 traces generated,  13.92 M overhead-free guest instructions, 0 misses
	// snapshot:  10.1 KB written
	//
	// warm start: rebuilt 315 persisted traces (0 rejected by validation)
	// warm run:   2584 traces generated (375 fewer), 0 misses
	//
	// estimated startup work avoided: ~26.2 M instructions of trace generation
}

// Example_vmtrace watches the dynamic optimizer work on a real interpreted
// program. It hand-assembles a small guest program in the synthetic ISA (a
// nested loop that calls a helper in a DLL, unloads the DLL, and keeps
// looping), then executes it instruction by instruction on the reference
// interpreter while the engine translates it: copying basic blocks,
// counting trace heads, building NET superblocks, and force-deleting the
// DLL's traces when it is unmapped.
func Example_vmtrace() {
	img, err := buildVMTraceGuest()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guest image: %d blocks, %d bytes across %d modules\n",
		img.NumBlocks(), img.Footprint(), len(img.Modules))

	mgr := repro.NewUnified(64<<10, nil)
	engine, err := repro.NewEngine(img, repro.EngineConfig{
		Manager:      mgr,
		HotThreshold: 10, // hot quickly, for demonstration
	})
	if err != nil {
		log.Fatal(err)
	}

	machine := repro.NewInterpreter(img)
	if err := engine.Run(repro.VMGuest(machine), 0); err != nil {
		log.Fatal(err)
	}

	s := engine.Stats()
	fmt.Printf("\ninterpreted %d instructions in %d basic blocks\n", s.GuestInstrs, s.Blocks)
	fmt.Printf("traces created: %d (%d bytes); dispatch entries: %d; in-trace blocks: %d\n",
		s.TracesCreated, s.TraceBytes, s.Accesses, s.InTraceSteps)
	fmt.Printf("DLL unload force-deleted %d trace(s), %d bytes\n", s.UnmappedTraces, s.UnmappedBytes)

	// Show what one superblock looks like, and that it can be encoded and
	// relocated between cache addresses (§5.4).
	inner, _ := img.FindFunction("main")
	var shown bool
	for _, blk := range inner.Blocks {
		if t, ok := engine.TraceFor(blk.Addr); ok && t.Len() > 1 {
			fmt.Printf("\ntrace %d at head %#x: %d blocks, %d exits, %d bytes total\n",
				t.ID, t.Head, t.Len(), t.Exits, t.Size())
			body, offs, err := trace.Encode(t, 0x7000_0000)
			if err != nil {
				log.Fatal(err)
			}
			if err := trace.Relocate(body, offs, 0x7000_0000, 0x7f00_0000, len(body)); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("encoded %d body bytes and relocated them 0x7000_0000 -> 0x7f00_0000\n", len(body))
			shown = true
			break
		}
	}
	if !shown {
		fmt.Println("\n(no multi-block trace materialized)")
	}
	fmt.Printf("\nguest exit code: %d (machine halted: %v)\n", machine.ExitCode, machine.Halted())
	// Output:
	// guest image: 14 blocks, 172 bytes across 2 modules
	//
	// interpreted 5222 instructions in 1622 basic blocks
	// traces created: 6 (800 bytes); dispatch entries: 466; in-trace blocks: 1019
	// DLL unload force-deleted 1 trace(s), 84 bytes
	//
	// trace 3 at head 0x10000040: 2 blocks, 3 exits, 178 bytes total
	// encoded 26 body bytes and relocated them 0x7000_0000 -> 0x7f00_0000
	//
	// guest exit code: 1 (machine halted: true)
}

// buildVMTraceGuest assembles Example_vmtrace's guest: an outer loop of 120
// iterations around an inner loop, calling helper.dll's helper for the first
// 60 and unloading the DLL at iteration 60.
func buildVMTraceGuest() (*repro.Image, error) {
	b := program.NewBuilder()
	exe := b.Module("demo.exe", false)
	dll := b.Module("helper.dll", true)

	// helper(r1) = r1 * 2 + 1
	hb, helper := dll.Function("helper")
	hb.Block()
	hb.I(isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 1})
	hb.I(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	hb.Ret()

	// main: outer loop 120x { inner work; call helper }, unload DLL at
	// iteration 60, keep looping without the helper.
	fb, mainFn := exe.Function("main")
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 0}) // outer counter
	outer := fb.NewBlock()
	fb.Jmp(outer)

	fb.StartBlock(outer)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 2, Rs1: 2, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 0}) // inner counter
	inner := fb.NewBlock()
	fb.Jmp(inner)
	fb.StartBlock(inner)
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 3, Rs1: 3, Imm: 1})
	fb.I(isa.Inst{Op: isa.OpAddImm, Rd: 4, Rs1: 4, Imm: 7}) // busywork
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 3, Imm: 8})
	fb.Jcc(isa.CondLT, inner)

	// Call the helper only while the DLL is mapped (first 60 iterations).
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 2, Imm: 60})
	noCall := fb.NewBlock()
	fb.Jcc(isa.CondGE, noCall)
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMov, Rd: 1, Rs1: 2})
	fb.Call(helper)
	join := fb.NewBlock()
	fb.Block() // return point of the call
	fb.Jmp(join)

	fb.StartBlock(noCall)
	// At exactly iteration 60, unload the DLL: its traces must die.
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 2, Imm: 60})
	skipUnload := fb.NewBlock()
	fb.Jcc(isa.CondNE, skipUnload)
	fb.Block()
	fb.I(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 1}) // module id of helper.dll
	fb.Syscall(isa.SysUnloadModule)
	fb.Block()
	fb.Jmp(join)
	fb.StartBlock(skipUnload)
	fb.Jmp(join)

	fb.StartBlock(join)
	fb.I(isa.Inst{Op: isa.OpCmpImm, Rs1: 2, Imm: 120})
	fb.Jcc(isa.CondLT, outer)
	fb.Block()
	fb.Syscall(isa.SysExit)
	fb.Block()
	fb.Halt()

	b.SetEntry(mainFn)
	return b.Build()
}
