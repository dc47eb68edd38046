package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dayload"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/workload"
)

// loadtestMain drives N concurrent synthetic clients against a running
// gencached server and reports throughput and latency. With -verify (the
// default) every served result is compared field-for-field against an
// offline replay of the identical log (server.OfflineReplay, the same
// ground truth the production-day engine verifies against) — the service's
// core guarantee is that concurrency never changes a session's numbers.
//
// The driver is a thin wrapper over the dayload plane: the session work
// list is a compiled dayload schedule (a flat one-hour day over the named
// benchmarks), and all pacing and latency measurement runs on a
// simclock.Clock rather than bare time calls.
func loadtestMain(args []string) {
	fs := flag.NewFlagSet("gencached loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "server base URL(s), comma-separated for a multi-node cluster; sessions round-robin across them (required)")
	clients := fs.Int("clients", 8, "concurrent client goroutines")
	sessions := fs.Int("sessions", 0, "total sessions to run (default: one per client)")
	bench := fs.String("bench", "word", "comma-separated benchmark names; clients round-robin across them")
	scale := fs.Float64("scale", 0.125, "workload code-size scale factor")
	capFrac := fs.Float64("capfrac", 0.5, "session capacity as a fraction of the log's unbounded peak")
	tiers := fs.String("tiers", api.DefaultTiers, `session cache shape as a tier string ("100" is the unified baseline; without "@threshold" the probation edge is ungated)`)
	verify := fs.Bool("verify", true, "verify every served result against an offline replay of the same log")
	minSessions := fs.Int("min-sessions", 0, "fail unless at least this many sessions completed")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall deadline")
	fs.Parse(args)
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "gencached loadtest: -addr is required")
		os.Exit(2)
	}
	// One configuration drives the served sessions and the offline
	// verification alike, and it is checked before any server is contacted.
	cfg := api.SessionConfig{CapFrac: *capFrac, Tiers: *tiers}
	if *clients < 1 {
		// No client would run a session, and every unrun one would count as ok.
		fmt.Fprintln(os.Stderr, "gencached loadtest: -clients must be at least 1")
		os.Exit(2)
	}
	if !api.ValidCapFrac(*capFrac) {
		fmt.Fprintln(os.Stderr, "gencached loadtest: -capfrac must be above 0 and at most 16")
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gencached loadtest:", err)
		os.Exit(2)
	}
	total := *sessions
	if total <= 0 {
		total = *clients
	}

	// The driver's time plane: a real clock here, but every deadline,
	// backoff, and latency measurement below goes through it, so the whole
	// driver can run on a virtual clock unchanged.
	clk := simclock.Default(nil)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// One client per node: a single -addr drives the classic single-server
	// loadtest, a comma-separated list deals sessions round-robin across a
	// cluster's nodes (results verify identically no matter which node
	// serves — that is the cluster's invariant).
	var nodes []*client.Client
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		nc := client.New(a)
		nc.Clock = clk
		if err := nc.WaitHealthy(ctx, 10*time.Second); err != nil {
			fatal(err)
		}
		nodes = append(nodes, nc)
	}

	// Synthesize each benchmark's log once; every session replays a private
	// copy, so the offline expectation is computed once per benchmark too.
	benches := strings.Split(*bench, ",")
	logs := make([][]byte, len(benches))
	benchIdx := make(map[string]int, len(benches))
	expected := make([]api.SessionResult, len(benches))
	for i, name := range benches {
		name = strings.TrimSpace(name)
		benches[i] = name
		benchIdx[name] = i
		data, err := workload.SyntheticLog(name, *scale)
		if err != nil {
			fatal(err)
		}
		logs[i] = data
		if *verify {
			exp, err := server.OfflineReplay(cfg, nil, data)
			if err != nil {
				fatal(err)
			}
			expected[i] = exp
		}
		fmt.Printf("loadtest: %s: %s log bytes\n", name, stats.FmtBytes(uint64(len(data))))
	}

	// The work list is a compiled dayload schedule: a flat one-hour day
	// splitting the session total across the benchmarks. The loadtest is
	// the degenerate production day — no diurnal shape, no deploys, no
	// crowds, issued as fast as the clients can go.
	arrivals, err := loadtestSchedule(benches, total)
	if err != nil {
		fatal(err)
	}

	type outcome struct {
		bench int
		res   api.SessionResult
		dur   time.Duration
		err   error
	}
	var (
		next     atomic.Int64
		retries  atomic.Int64
		outcomes = make([]outcome, total)
		wg       sync.WaitGroup
	)
	start := clk.Now()
	for cl := 0; cl < *clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= total {
					return
				}
				b := benchIdx[arrivals[n].Bench]
				node := nodes[n%len(nodes)]
				t0 := clk.Now()
				var res api.SessionResult
				var err error
				for attempt := 0; ; attempt++ {
					res, err = node.Session(ctx, client.SessionOptions{SessionConfig: cfg}, bytes.NewReader(logs[b]))
					if !errors.Is(err, client.ErrOverloaded) || attempt >= 20 {
						break
					}
					retries.Add(1)
					select {
					case <-ctx.Done():
					case <-clk.After(100 * time.Millisecond):
					}
				}
				outcomes[n] = outcome{bench: b, res: res, dur: clk.Since(t0), err: err}
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Since(start)

	var (
		ok, failed, mismatched int
		events, adoptions      uint64
		peerAdoptions          uint64
		published              uint64
		saved                  float64
		durs                   []time.Duration
	)
	for _, o := range outcomes {
		if o.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "loadtest: session failed: %v\n", o.err)
			continue
		}
		ok++
		events += o.res.Events
		adoptions += o.res.Shared.Adoptions
		peerAdoptions += o.res.Shared.PeerAdoptions
		published += o.res.Shared.Published
		saved += o.res.Shared.SavedGenInstructions
		durs = append(durs, o.dur)
		if *verify && !server.ResultsEquivalent(o.res, expected[o.bench]) {
			mismatched++
			fmt.Fprintf(os.Stderr, "loadtest: session %d result diverges from offline replay:\n  offline: %+v\n  served:  %+v\n",
				o.res.Session, expected[o.bench], o.res)
		}
	}

	fmt.Printf("loadtest: %d/%d sessions ok over %d clients in %.2fs (%.1f sessions/s)\n",
		ok, total, *clients, elapsed.Seconds(), float64(ok)/elapsed.Seconds())
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		fmt.Printf("loadtest: events %s total (%.0f events/s); latency p50 %s p95 %s max %s\n",
			stats.FmtCount(events), float64(events)/elapsed.Seconds(),
			durs[len(durs)/2].Round(time.Millisecond),
			durs[len(durs)*95/100].Round(time.Millisecond),
			durs[len(durs)-1].Round(time.Millisecond))
	}
	fmt.Printf("loadtest: shared tier: %d adoptions (%d cross-node), %d published, %s instructions saved; %d overload retries\n",
		adoptions, peerAdoptions, published, stats.FmtCount(uint64(saved)), retries.Load())
	if *verify {
		fmt.Printf("loadtest: verified %d/%d results bit-identical to offline replay\n", ok-mismatched, ok)
	}

	bad := false
	if failed > 0 || mismatched > 0 {
		bad = true
	}
	if ok < *minSessions {
		fmt.Fprintf(os.Stderr, "loadtest: only %d sessions completed, need %d\n", ok, *minSessions)
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}

// loadtestSchedule compiles the loadtest's work list through the dayload
// plane: a flat one-hour day splitting total sessions evenly across the
// benchmarks, seeded so the issue order is reproducible.
func loadtestSchedule(benches []string, total int) ([]dayload.Arrival, error) {
	spec := dayload.Spec{
		Name:      "loadtest",
		Seed:      1,
		DayLength: time.Hour,
	}
	share := total / len(benches)
	for i, b := range benches {
		n := share
		if i < total%len(benches) {
			n++
		}
		if n == 0 {
			continue
		}
		spec.Mixes = append(spec.Mixes, dayload.Mix{Bench: b, Sessions: n})
	}
	return spec.Arrivals()
}
