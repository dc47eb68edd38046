// Package repro is a from-scratch reproduction of "Generational Cache
// Management of Code Traces in Dynamic Optimization Systems" (Hazelwood &
// Smith, MICRO-36, 2003).
//
// The package is a facade over the implementation:
//
//   - internal/core — the paper's contribution: unified and generational
//     (nursery / probation / persistent) code-cache managers, Figure 8's
//     promotion algorithm;
//   - internal/codecache — byte-granular cache arenas with the §4.3
//     pseudo-circular replacement sweep, undeletable traces, and
//     program-forced deletions;
//   - internal/policy — local replacement policies (pseudo-circular, LRU,
//     flush-when-full, Dynamo-style preemptive flushing, TRRIP), named by
//     registry spec;
//   - internal/isa, internal/program, internal/vm — the synthetic guest
//     architecture: instruction set, program images with modules/DLLs, and
//     a reference interpreter;
//   - internal/bbcache, internal/trace, internal/dbt — the dynamic-
//     optimizer front end: basic-block cache, NET trace selection,
//     superblock construction with relocation, and the engine;
//   - internal/workload — calibrated synthetic stand-ins for SPEC2000 and
//     the paper's twelve interactive Windows applications;
//   - internal/tracelog, internal/sim — the verbose cache-event log and the
//     replay simulator (the paper's evaluation methodology);
//   - internal/costmodel — Table 2's instruction-overhead model;
//   - internal/experiments — regenerators for every table and figure.
//
// The typical flow mirrors the paper: synthesize a benchmark, run it once
// under an unbounded trace cache to capture the event log, then replay the
// log under the cache configurations being compared:
//
//	profile, _ := repro.BenchmarkByName("word")
//	bench, _ := repro.Synthesize(profile.Scaled(0.125))
//	... run via repro.NewEngine, capture a log, replay with repro.Compare ...
//
// The package examples are complete programs, each checked against its
// recorded output; EXPERIMENTS.md is the paper-versus-measured record.
package repro
