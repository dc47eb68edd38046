// Command tracegen synthesizes a benchmark program, runs it under the
// dynamic-optimizer engine with an unbounded trace cache, and writes the
// verbose cache-event log to a file — the first half of the paper's
// evaluation methodology (§6). Replay the log with ccsim.
//
// Usage:
//
//	tracegen -bench word [-scale 0.125] [-o word.cclog]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/dbt"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (see gencache for the list)")
	scale := flag.Float64("scale", 0.125, "code-size scale factor")
	out := flag.String("o", "", "output log path (default <bench>.cclog)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("tracegen"))
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -bench is required; benchmarks:")
		for _, p := range workload.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", p.Name, p.Description)
		}
		os.Exit(2)
	}
	p, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = p.Name + ".cclog"
	}

	b, err := workload.Synthesize(p.Scaled(*scale))
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	s, n, err := b.Collect(f, dbt.Config{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %s blocks executed, %s traces (%s), %s accesses, %s unmapped\n",
		p.Name,
		stats.FmtCount(s.Blocks),
		stats.FmtCount(s.TracesCreated), stats.FmtBytes(s.TraceBytes),
		stats.FmtCount(s.Accesses), stats.FmtBytes(s.UnmappedBytes))
	fmt.Printf("wrote %s (%s events)\n", path, stats.FmtCount(n))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
