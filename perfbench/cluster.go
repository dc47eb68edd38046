package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/simclock"
)

// The cluster workload is the distributed shared tier: three in-process
// gencached nodes on virtual clocks whose peer traffic runs through the
// real /v1/peer handlers and wire codecs over a loopback transport owned by
// the benchmark. Each round starts a fresh cluster and serves a fixed,
// seed-shuffled schedule one session at a time, round-robin across nodes,
// flushing the serving node's replication after each session, as
// experiments.ClusterVsIsolated does. A round is single-goroutine and
// deterministic, so its counters repeat exactly.

const (
	clusterNodes = 3
	// clusterRepeats is how many sessions of each log a round serves.
	clusterRepeats = 6
)

// peerTransport routes peer requests to the nodes' handlers in-process and
// counts what crosses it.
type peerTransport struct {
	handlers map[string]http.Handler
	tr       *tracer
	parent   int // the open span peer calls nest in

	lookups, replicates, bytes uint64
}

func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no cluster node %q", req.URL.Host)
	}
	sp := t.tr.begin("cluster.peer", t.parent)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	t.tr.end(sp)
	switch req.URL.Path {
	case cluster.PeerLookupPath:
		t.lookups++
	case cluster.PeerReplicatePath:
		t.replicates++
	}
	t.bytes += uint64(max(req.ContentLength, 0)) + uint64(rec.Body.Len())
	return rec.Result(), nil
}

func nodeName(n int) string { return fmt.Sprintf("node-%d", n) }

// clusterEnv is one set-up instance: logs, their offline results, and the
// round's schedule of log indexes.
type clusterEnv struct {
	logs     []synthLog
	expected []api.SessionResult
	counters map[string]uint64 // hits and misses per log
	goldOK   bool
	schedule []int
	cc       *counterChecker
}

func setupCluster(ctx context.Context, o opts) (*clusterEnv, error) {
	logs, err := synthesizeServed(o)
	if err != nil {
		return nil, err
	}
	e := &clusterEnv{logs: logs, counters: make(map[string]uint64)}
	for _, l := range logs {
		res, err := server.OfflineReplay(server.SessionConfig{}, nil, l.data)
		if err != nil {
			return nil, err
		}
		e.expected = append(e.expected, res)
		e.counters["hits/"+l.name] = res.Hits
		e.counters["misses/"+l.name] = res.Misses
		for i := 0; i < clusterRepeats; i++ {
			e.schedule = append(e.schedule, len(e.expected)-1)
		}
	}
	if e.cc, err = newCounterChecker(o); err != nil {
		return nil, err
	}
	e.goldOK = e.cc.check(e.counters)
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(e.schedule), func(i, j int) { e.schedule[i], e.schedule[j] = e.schedule[j], e.schedule[i] })
	// Warm-up: one untimed round.
	if _, err := e.round(ctx, true, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// clusterRound is what one round measured.
type clusterRound struct {
	elapsed   time.Duration
	latencies []time.Duration // ServeSession, one per scheduled session
	ok        []bool
	events    uint64
	counters  map[string]uint64
	stats     cluster.Stats // summed over nodes
	transport *peerTransport
}

// round serves the schedule once on fresh nodes, clustered or isolated.
func (e *clusterEnv) round(ctx context.Context, clustered bool, tr *tracer) (clusterRound, error) {
	start := time.Now()
	pt := &peerTransport{handlers: make(map[string]http.Handler), tr: tr, parent: -1}
	hc := &http.Client{Transport: pt}
	r := clusterRound{transport: pt}
	srvs := make([]*server.Server, clusterNodes)
	for n := range srvs {
		cfg := server.Config{KeepWarm: true, Logf: func(string, ...any) {}, Clock: simclock.NewVirtual()}
		if clustered {
			cc := &server.ClusterConfig{NodeID: nodeName(n), HTTPClient: hc}
			for p := 0; p < clusterNodes; p++ {
				if p != n {
					cc.Peers = append(cc.Peers, server.PeerAddr{ID: nodeName(p), URL: "http://" + nodeName(p)})
				}
			}
			cfg.Cluster = cc
		}
		srv, err := server.New(cfg)
		if err != nil {
			return r, err
		}
		srvs[n] = srv
		pt.handlers[nodeName(n)] = srv.Handler()
	}
	var peerAdoptions uint64
	for i, li := range e.schedule {
		srv := srvs[i%clusterNodes]
		sp := tr.begin("server.serve_session", -1)
		pt.parent = sp
		t0 := time.Now()
		res, err := srv.ServeSession(server.SessionConfig{}, e.logs[li].data)
		d := time.Since(t0)
		tr.end(sp)
		ok := err == nil && e.goldOK && server.ResultsEquivalent(res, e.expected[li])
		if !ok {
			fmt.Fprintf(os.Stderr, "cluster: session %d (%s) failed: %v\n", i, e.logs[li].name, err)
		}
		r.latencies = append(r.latencies, d)
		r.ok = append(r.ok, ok)
		r.events += res.Events
		peerAdoptions += res.Shared.PeerAdoptions
		if clustered {
			sp = tr.begin("server.flush", -1)
			pt.parent = sp
			srv.FlushReplication(ctx)
			tr.end(sp)
		}
	}
	r.elapsed = time.Since(start)
	if clustered {
		for _, srv := range srvs {
			st := srv.Cluster().Stats()
			r.stats.PeerLookups += st.PeerLookups
			r.stats.PeerLookupMisses += st.PeerLookupMisses
			r.stats.PeerLookupErrors += st.PeerLookupErrors
			r.stats.Replicated += st.Replicated
			r.stats.ReplicateDropped += st.ReplicateDropped
		}
	}
	r.counters = map[string]uint64{
		"cluster.lookups":           pt.lookups,
		"cluster.replicate_batches": pt.replicates,
		"cluster.replicated":        r.stats.Replicated,
		"cluster.peer_adoptions":    peerAdoptions,
	}
	return r, nil
}

// clusterTotals sums the clustered rounds of one timed loop.
type clusterTotals struct {
	// elapsed and serve are the clustered rounds' wall and ServeSession
	// time; isolated is ServeSession time on the isolated rounds.
	elapsed, serve, isolated time.Duration
	latencies                []float64 // ms
	events                   uint64
	sessions                 int
	last                     clusterRound // the last clustered round
}

// loop serves rounds until the run's time is up. Each session is an op,
// checked against its offline replay; each round's counters are one more
// op, checked against the first round's and the golden record. With
// isolated set, every clustered round is followed by the same schedule on
// isolated nodes, whose time is kept apart.
func (e *clusterEnv) loop(ctx context.Context, o opts, tr *tracer, isolated bool, rep *report) (clusterTotals, error) {
	var t clusterTotals
	runtime.GC() // time the loop from a clean heap, not set-up's garbage
	start := time.Now()
	for time.Since(start) < o.seconds {
		r, err := e.round(ctx, true, tr)
		if err != nil {
			return t, err
		}
		t.elapsed += r.elapsed
		t.events += r.events
		for i, d := range r.latencies {
			rep.op(r.ok[i])
			t.latencies = append(t.latencies, ms(d))
			t.serve += d
		}
		t.sessions += len(r.latencies)
		rep.op(e.cc.check(r.counters))
		t.last = r
		if isolated {
			iso, err := e.round(ctx, false, nil)
			if err != nil {
				return t, err
			}
			for i, d := range iso.latencies {
				rep.op(iso.ok[i])
				t.isolated += d
			}
		}
	}
	return t, nil
}

func runCluster(ctx context.Context, o opts, rep *report) error {
	e, err := repeatSetup(rep, func() (*clusterEnv, error) { return setupCluster(ctx, o) }, func(*clusterEnv) {})
	if err != nil {
		return err
	}
	t, err := e.loop(ctx, o, nil, false, rep)
	if err != nil {
		return err
	}
	maps.Copy(rep.counters, e.counters)
	maps.Copy(rep.counters, t.last.counters)
	untraced := float64(t.events) / t.elapsed.Seconds()
	rep.set("events_per_s", untraced)
	rep.set("session_p50_ms", median(t.latencies))
	rep.set("session_p95_ms", quantile(t.latencies, 0.95))
	if !o.trace {
		return nil
	}
	reportSynthesis(rep, e.logs)
	perSession := float64(len(e.schedule))
	last := t.last
	rep.set("cluster.lookups", float64(last.transport.lookups)/perSession)
	rep.set("cluster.replicate_batches", float64(last.transport.replicates)/perSession)
	rep.set("cluster.peer_bytes", float64(last.transport.bytes)/perSession)
	rep.set("cluster.replicated", float64(last.stats.Replicated)/perSession)
	rep.set("cluster.replicate_dropped", float64(last.stats.ReplicateDropped)/perSession)
	rep.set("cluster.peer_adoptions", float64(last.counters["cluster.peer_adoptions"])/perSession)
	rep.set("cluster.lookup_hit_ratio", 1-ratio(float64(last.stats.PeerLookupMisses+last.stats.PeerLookupErrors), float64(last.stats.PeerLookups)))

	// server.hooks_s: ServeSession minus the offline replay of the same log,
	// from the untraced loop's latencies.
	offline := make([]float64, len(e.logs))
	for i, l := range e.logs {
		var xs []float64
		for k := 0; k < layerReps; k++ {
			d, err := timeIt(func() error { _, err := server.OfflineReplay(server.SessionConfig{}, nil, l.data); return err })
			if err != nil {
				return err
			}
			xs = append(xs, d.Seconds())
		}
		offline[i] = median(xs)
	}
	// Every round serves the schedule in order, so session k replayed log
	// schedule[k mod len(schedule)].
	var gap float64
	for k, lat := range t.latencies {
		gap += lat/1e3 - offline[e.schedule[k%len(e.schedule)]]
	}
	rep.set("server.hooks_s", gap/float64(len(t.latencies)))

	tr := newTracer()
	traced, err := e.loop(ctx, o, tr, true, rep)
	if err != nil {
		return err
	}
	reportOverhead(rep, untraced, float64(traced.events)/traced.elapsed.Seconds())
	sessions := float64(traced.sessions)
	peer := tr.total("cluster.peer")
	flush := tr.total("server.flush")
	serve := tr.total("server.serve_session")
	rep.set("cluster.serve_session_s", serve.Seconds()/sessions)
	rep.set("cluster.peer_s", peer.Seconds()/sessions)
	rep.set("server.flush_s", flush.Seconds()/sessions)
	rep.set("cluster.peer_share", ratio(peer.Seconds(), serve.Seconds()))
	rep.set("cluster.layer_s", (traced.serve-traced.isolated).Seconds()/sessions)
	return nil
}
