// The cluster-vs-isolated experiment: the same deterministic session mix
// served by N gencached nodes running either as N fully isolated servers
// (each with its own private shared tier — the pre-cluster deployment) or
// as one N-node distributed shared tier (the cluster subsystem: a
// rendezvous-hashed shard ring, asynchronous replication to shard owners,
// and pull-on-miss cross-node adoption). Replay-visible results are
// bit-identical in both arms by construction — the cluster's core
// invariant — so the comparison is purely about generation cost: how many
// trace generations each deployment actually pays after local and
// cross-node adoptions are credited. The cluster arm must pay fewer.
//
// Peer traffic runs over the real HTTP exchange endpoints and wire codecs,
// but through an in-process loopback transport (no sockets) and on virtual
// clocks, so the whole study is a deterministic function of its options —
// the cluster arm is run twice and must fingerprint identically.

package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ClusterVsIsolatedOptions configures the study.
type ClusterVsIsolatedOptions struct {
	// Nodes is the server count in both arms (default 3).
	Nodes int
	// Sessions is the total session count, dealt round-robin across nodes
	// (default 12).
	Sessions int
	// Benches are the workloads in the mix; session i replays bench i mod
	// len(Benches), so with counts coprime to Nodes every node eventually
	// serves every bench (default gzip, word).
	Benches []string
	// Scale is the workload synthesis scale (default 0.05).
	Scale float64
	// Shards is the cluster ring's shard count (default 64).
	Shards int
	// SharedCap is each node's shared-tier capacity (default 8 MiB).
	SharedCap uint64
	// Verify replays every served session offline and counts divergences.
	Verify bool
	// Progress, when non-nil, receives one line per finished arm.
	Progress func(string)
}

func (o ClusterVsIsolatedOptions) withDefaults() ClusterVsIsolatedOptions {
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.Sessions == 0 {
		o.Sessions = 12
	}
	if len(o.Benches) == 0 {
		o.Benches = []string{"gzip", "word"}
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Shards == 0 {
		o.Shards = 64
	}
	if o.SharedCap == 0 {
		o.SharedCap = 8 << 20
	}
	return o
}

// ClusterArm is one arm's aggregate outcome.
type ClusterArm struct {
	// Gens is the replay-visible generation total (cold creates +
	// regenerations) across all sessions — identical in both arms when the
	// bit-identity invariant holds.
	Gens uint64
	// Adoptions counts local shared-tier adoptions: generations a node
	// avoided paying because an earlier session on the same node (or a
	// replicated publication) had already paid them.
	Adoptions uint64
	// PeerAdoptions counts cross-node adoptions: generations avoided by
	// pulling a publication from its shard owner. Zero in the isolated arm.
	PeerAdoptions uint64
	// SavedInstr is the modeled trace-generation instruction cost the
	// adoptions avoided.
	SavedInstr float64
	// VerifyFailed counts sessions whose served result diverged from the
	// offline replay of the same log. Must be zero.
	VerifyFailed int

	fingerprint string
}

// PaidGens is the arm's headline: generations actually paid after local and
// cross-node adoptions are credited.
func (a ClusterArm) PaidGens() uint64 { return a.Gens - a.Adoptions - a.PeerAdoptions }

// ClusterVsIsolatedResult is the study's outcome.
type ClusterVsIsolatedResult struct {
	Nodes    int
	Sessions int
	Benches  []string

	Isolated ClusterArm
	Cluster  ClusterArm

	// Replicated counts publications accepted by their shard owners in the
	// cluster arm.
	Replicated uint64
	// Deterministic reports that two independent runs of the cluster arm
	// produced byte-identical fingerprints (per-session results, per-node
	// exchange counters).
	Deterministic bool
	// ClusterWins is the headline verdict: the cluster arm paid strictly
	// fewer generations than the isolated arm, at least one adoption crossed
	// nodes, no session diverged from offline replay, and the arm is
	// deterministic.
	ClusterWins bool
}

// GensSaved is the fraction of the isolated arm's paid generations the
// cluster avoided.
func (r ClusterVsIsolatedResult) GensSaved() float64 {
	if r.Isolated.PaidGens() == 0 {
		return 0
	}
	return 1 - float64(r.Cluster.PaidGens())/float64(r.Isolated.PaidGens())
}

// ClusterVsIsolated runs the study.
func ClusterVsIsolated(opts ClusterVsIsolatedOptions) (ClusterVsIsolatedResult, error) {
	o := opts.withDefaults()
	if o.Nodes < 2 {
		return ClusterVsIsolatedResult{}, fmt.Errorf("experiments: cluster-vs-isolated needs at least 2 nodes, got %d", o.Nodes)
	}
	res := ClusterVsIsolatedResult{Nodes: o.Nodes, Sessions: o.Sessions, Benches: o.Benches}

	// One synthesis pass shared by every arm: identical input bytes, and one
	// offline expectation per bench (every session of a bench replays the
	// same log, so one ground truth covers them all).
	logs := make([][]byte, len(o.Benches))
	expected := make([]api.SessionResult, len(o.Benches))
	for i, b := range o.Benches {
		data, err := workload.SyntheticLog(b, o.Scale)
		if err != nil {
			return res, err
		}
		logs[i] = data
		if o.Verify {
			exp, err := server.OfflineReplay(server.SessionConfig{}, nil, data)
			if err != nil {
				return res, err
			}
			expected[i] = exp
		}
	}

	progress := func(line string) {
		if o.Progress != nil {
			o.Progress(line)
		}
	}
	iso, _, err := runClusterArm(o, logs, expected, false)
	if err != nil {
		return res, err
	}
	res.Isolated = iso
	progress(fmt.Sprintf("isolated arm done: %d gens paid", iso.PaidGens()))

	cl1, repl, err := runClusterArm(o, logs, expected, true)
	if err != nil {
		return res, err
	}
	cl2, _, err := runClusterArm(o, logs, expected, true)
	if err != nil {
		return res, err
	}
	res.Cluster = cl1
	res.Replicated = repl
	res.Deterministic = cl1.fingerprint == cl2.fingerprint
	progress(fmt.Sprintf("cluster arm done: %d gens paid, %d cross-node adoptions", cl1.PaidGens(), cl1.PeerAdoptions))

	res.ClusterWins = res.Cluster.PaidGens() < res.Isolated.PaidGens() &&
		res.Cluster.PeerAdoptions > 0 &&
		res.Isolated.VerifyFailed == 0 && res.Cluster.VerifyFailed == 0 &&
		res.Deterministic
	return res, nil
}

// loopbackTransport routes peer HTTP requests to in-process handlers by
// host name: the real exchange endpoints and wire codecs, no sockets. The
// handler map is filled after every node is constructed and read only while
// sessions run, single-goroutine.
type loopbackTransport struct {
	handlers map[string]http.Handler
}

func (t *loopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("experiments: no cluster node %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func clusterNodeName(n int) string { return fmt.Sprintf("node-%d", n) }

// runClusterArm serves the deterministic session mix against o.Nodes
// servers — clustered into one distributed shared tier, or fully isolated —
// and returns the arm's totals plus the cluster's replication count.
// Sessions run sequentially in schedule order; the serving node flushes its
// replication queue after every session, the deterministic stand-in for the
// live daemon's replication ticker.
func runClusterArm(o ClusterVsIsolatedOptions, logs [][]byte, expected []api.SessionResult, clustered bool) (ClusterArm, uint64, error) {
	var arm ClusterArm
	rt := &loopbackTransport{handlers: make(map[string]http.Handler)}
	hc := &http.Client{Transport: rt}
	srvs := make([]*server.Server, o.Nodes)
	for n := range srvs {
		cfg := server.Config{
			SharedCapacity: o.SharedCap,
			KeepWarm:       true,
			Logf:           func(string, ...any) {},
			Clock:          simclock.NewVirtual(),
		}
		if clustered {
			cc := &server.ClusterConfig{NodeID: clusterNodeName(n), Shards: o.Shards, HTTPClient: hc}
			for p := 0; p < o.Nodes; p++ {
				if p != n {
					cc.Peers = append(cc.Peers, server.PeerAddr{ID: clusterNodeName(p), URL: "http://" + clusterNodeName(p)})
				}
			}
			cfg.Cluster = cc
		}
		srv, err := server.New(cfg)
		if err != nil {
			return arm, 0, err
		}
		srvs[n] = srv
		if clustered {
			rt.handlers[clusterNodeName(n)] = srv.Handler()
		}
	}

	var fp strings.Builder
	for i := 0; i < o.Sessions; i++ {
		n := i % o.Nodes
		b := i % len(o.Benches)
		res, err := srvs[n].ServeSession(server.SessionConfig{}, logs[b])
		if err != nil {
			return arm, 0, fmt.Errorf("experiments: session %d on %s: %w", i, clusterNodeName(n), err)
		}
		if o.Verify && !server.ResultsEquivalent(res, expected[b]) {
			arm.VerifyFailed++
		}
		arm.Gens += res.ColdCreates + res.Regenerations
		arm.Adoptions += res.Shared.Adoptions
		arm.PeerAdoptions += res.Shared.PeerAdoptions
		arm.SavedInstr += res.Shared.SavedGenInstructions
		fmt.Fprintf(&fp, "%d %s gens=%d adopt=%d peer=%d saved=%.0f\n",
			n, o.Benches[b], res.ColdCreates+res.Regenerations,
			res.Shared.Adoptions, res.Shared.PeerAdoptions, res.Shared.SavedGenInstructions)
		if clustered {
			srvs[n].FlushReplication(context.Background())
		}
	}

	var replicated uint64
	if clustered {
		for _, srv := range srvs {
			cst := srv.Cluster().Stats()
			replicated += cst.Replicated
			fmt.Fprintf(&fp, "%s lookups=%d misses=%d errors=%d peer-adopt=%d repl=%d rej=%d drop=%d owned=%d\n",
				srv.Cluster().ID(), cst.PeerLookups, cst.PeerLookupMisses, cst.PeerLookupErrors,
				cst.PeerAdoptions, cst.Replicated, cst.ReplicateRejected, cst.ReplicateDropped,
				len(srv.Cluster().OwnedShards()))
		}
	}
	arm.fingerprint = fp.String()
	return arm, replicated, nil
}

// RenderClusterVsIsolated renders the study as text.
func RenderClusterVsIsolated(r ClusterVsIsolatedResult) string {
	t := stats.NewTable("Arm", "Nodes", "Sessions", "Gens", "Adopted", "PeerAdopted", "GensPaid", "InstrSaved")
	t.AddRow("isolated", fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Sessions),
		fmt.Sprintf("%d", r.Isolated.Gens), fmt.Sprintf("%d", r.Isolated.Adoptions),
		fmt.Sprintf("%d", r.Isolated.PeerAdoptions), fmt.Sprintf("%d", r.Isolated.PaidGens()),
		stats.FmtCount(uint64(r.Isolated.SavedInstr)))
	t.AddRow("cluster", fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Sessions),
		fmt.Sprintf("%d", r.Cluster.Gens), fmt.Sprintf("%d", r.Cluster.Adoptions),
		fmt.Sprintf("%d", r.Cluster.PeerAdoptions), fmt.Sprintf("%d", r.Cluster.PaidGens()),
		stats.FmtCount(uint64(r.Cluster.SavedInstr)))
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "cluster: %d publications replicated to shard owners; paid generations %d -> %d (%.1f%% saved)\n",
		r.Replicated, r.Isolated.PaidGens(), r.Cluster.PaidGens(), r.GensSaved()*100)
	return b.String()
}
