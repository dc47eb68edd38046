// Integration tests for the distributed shared tier: multi-node clusters
// over real HTTP (httptest), cross-node adoption, snapshot bootstrap,
// membership churn, and the two determinism criteria — a single-node
// cluster is byte-identical to an unclustered server (sessions, NDJSON,
// snapshots), and multi-node event streams are byte-reproducible run to
// run.
package server_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// testCluster is an n-node gencached cluster over real HTTP listeners.
type testCluster struct {
	srvs []*server.Server
	ts   []*httptest.Server
	cls  []*client.Client
}

func nodeID(i int) string { return fmt.Sprintf("n%d", i) }

// newCluster builds n clustered servers, binds each to a listener, and
// wires the full mesh through SetClusterPeers (listener URLs only exist
// after construction, exactly like a rolling deployment).
func newCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			KeepWarm: true,
			Logf:     t.Logf,
			Cluster:  &server.ClusterConfig{NodeID: nodeID(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		tc.srvs = append(tc.srvs, srv)
		tc.ts = append(tc.ts, ts)
		tc.cls = append(tc.cls, client.New(ts.URL))
	}
	for i := 0; i < n; i++ {
		if err := tc.srvs[i].SetClusterPeers(tc.peersExcept(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

func (tc *testCluster) peersExcept(i int) []server.PeerAddr {
	var peers []server.PeerAddr
	for j := range tc.srvs {
		if j != i {
			peers = append(peers, server.PeerAddr{ID: nodeID(j), URL: tc.ts[j].URL})
		}
	}
	return peers
}

// TestClusterCrossNodeAdoption is the tentpole scenario: a session on node 0
// publishes, replication pushes the publications to their shard owners, and
// a session replaying the same benchmark on node 1 adopts across the
// cluster — while both sessions stay bit-identical to the offline replay of
// the same log, no matter which node served them.
func TestClusterCrossNodeAdoption(t *testing.T) {
	data := syntheticLog(t, "gzip")
	offline, err := server.OfflineReplay(server.SessionConfig{}, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	tc := newCluster(t, 3)
	ctx := context.Background()

	res0, err := tc.cls[0].Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res0.Shared.Published == 0 {
		t.Fatal("first session published nothing; replication has nothing to move")
	}
	if !server.ResultsEquivalent(res0, offline) {
		t.Errorf("node 0 session diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, res0)
	}
	if n := tc.srvs[0].FlushReplication(ctx); n == 0 {
		t.Fatal("replication flush moved nothing to shard owners")
	}

	res1, err := tc.cls[1].Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Shared.PeerAdoptions == 0 {
		t.Error("node 1 session adopted nothing across the cluster")
	}
	if !server.ResultsEquivalent(res1, offline) {
		t.Errorf("node 1 session diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, res1)
	}

	// The serving node's health and metrics expose the cluster plane.
	h, err := tc.cls[1].Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ClusterNode != nodeID(1) || h.ClusterPeers != 2 || h.ShardsOwned == 0 {
		t.Errorf("health cluster view: node=%q peers=%d shards=%d", h.ClusterNode, h.ClusterPeers, h.ShardsOwned)
	}
	metrics, err := tc.cls[1].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gencached_peer_adoptions_total", "gencached_shard_owned", "gencached_peer_lookup_latency_seconds_count"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if strings.Contains(metrics, "gencached_peer_adoptions_total 0\n") {
		t.Error("peer adoption counter still zero after a cross-node adoption")
	}
}

// streamSession drives one session in events mode and returns the raw
// NDJSON body — the byte stream the determinism criteria quantify over.
func streamSession(t *testing.T, baseURL string, data []byte) []byte {
	t.Helper()
	u := baseURL + api.SessionsPath + "?" + api.ParamEvents + "=1"
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestClusterSingleNodeByteIdentical: a single-node cluster (a node with an
// ID but no peers — the bootstrap state of every rolling deployment) must
// be byte-identical to an unclustered server on every deterministic
// surface: session NDJSON streams, session results, and snapshots.
func TestClusterSingleNodeByteIdentical(t *testing.T) {
	data := syntheticLog(t, "word")
	dir := t.TempDir()

	run := func(name string, cluster *server.ClusterConfig) (stream []byte, snap []byte) {
		snapPath := filepath.Join(dir, name+".ccpersist")
		srv, err := server.New(server.Config{
			KeepWarm:     true,
			SnapshotPath: snapPath,
			Logf:         t.Logf,
			Cluster:      cluster,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		stream = streamSession(t, ts.URL, data)
		if err := srv.SaveSnapshot(); err != nil {
			t.Fatal(err)
		}
		snap, err = os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		return stream, snap
	}

	plainStream, plainSnap := run("plain", nil)
	clusterStream, clusterSnap := run("cluster", &server.ClusterConfig{NodeID: "solo"})

	if !bytes.Equal(plainStream, clusterStream) {
		t.Error("single-node cluster NDJSON stream differs from the unclustered server's")
	}
	if !bytes.Equal(plainSnap, clusterSnap) {
		t.Error("single-node cluster snapshot differs from the unclustered server's")
	}
}

// TestClusterMultiNodeStreamsReproducible: two independent clusters serving
// the identical session sequence produce byte-identical NDJSON streams —
// node tags, peer-adopt events and all.
func TestClusterMultiNodeStreamsReproducible(t *testing.T) {
	data := syntheticLog(t, "gzip")
	run := func() []byte {
		tc := newCluster(t, 3)
		var all bytes.Buffer
		all.Write(streamSession(t, tc.ts[0].URL, data))
		tc.srvs[0].FlushReplication(context.Background())
		all.Write(streamSession(t, tc.ts[1].URL, data))
		return all.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Error("multi-node NDJSON streams differ between identical runs")
	}
	if !bytes.Contains(first, []byte(`"kind":"peer-adopt"`)) {
		t.Error("stream carries no peer-adopt events")
	}
	if !bytes.Contains(first, []byte(`"node":"n1"`)) {
		t.Error("multi-node stream events are not node-tagged")
	}
}

// TestClusterSnapshotBootstrap: a joining node pulls its owned shards from
// the peers' snapshots (the persist format doubling as the shard transfer
// format) and serves adoptions from them immediately.
func TestClusterSnapshotBootstrap(t *testing.T) {
	data := syntheticLog(t, "word")
	offline, err := server.OfflineReplay(server.SessionConfig{}, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	tc := newCluster(t, 2)
	ctx := context.Background()

	// Warm the cluster: publications land on node 0 and replicate to node 1.
	if _, err := tc.cls[0].Session(ctx, client.SessionOptions{}, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	tc.srvs[0].FlushReplication(ctx)

	// A third node joins: every member learns the new ring, the joiner
	// bootstraps its owned shards from the existing members' snapshots.
	joiner, err := server.New(server.Config{
		KeepWarm: true,
		Logf:     t.Logf,
		Cluster:  &server.ClusterConfig{NodeID: nodeID(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	jts := httptest.NewServer(joiner.Handler())
	t.Cleanup(jts.Close)
	tc.srvs = append(tc.srvs, joiner)
	tc.ts = append(tc.ts, jts)
	tc.cls = append(tc.cls, client.New(jts.URL))
	for i := range tc.srvs {
		if err := tc.srvs[i].SetClusterPeers(tc.peersExcept(i)); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := joiner.BootstrapFromPeers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("joiner bootstrapped nothing from its peers")
	}
	if joiner.Shared().Used() == 0 {
		t.Fatal("joiner's shared tier still empty after bootstrap")
	}

	// A session on the joiner adopts from its bootstrapped shard and the
	// cluster, and still verifies against offline replay.
	res, err := tc.cls[2].Session(ctx, client.SessionOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shared.Adoptions+res.Shared.PeerAdoptions == 0 {
		t.Error("session on the joiner adopted nothing")
	}
	if !server.ResultsEquivalent(res, offline) {
		t.Errorf("joiner session diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, res)
	}
}

// TestClusterSessionSurvivesPeerDeparture: a session streaming on node 0
// while a peer departs mid-replay still completes and still verifies
// bit-identical to offline — cross-node adoption is an optimization, never
// a dependency.
func TestClusterSessionSurvivesPeerDeparture(t *testing.T) {
	data := syntheticLog(t, "gzip")
	offline, err := server.OfflineReplay(server.SessionConfig{}, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	tc := newCluster(t, 3)
	ctx := context.Background()

	// Warm the cluster so the streaming session has remote shards to pull.
	if _, err := tc.cls[1].Session(ctx, client.SessionOptions{}, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	tc.srvs[1].FlushReplication(ctx)

	pr, pw := io.Pipe()
	type sessionOut struct {
		res api.SessionResult
		err error
	}
	done := make(chan sessionOut, 1)
	go func() {
		res, err := tc.cls[0].Session(ctx, client.SessionOptions{}, pr)
		done <- sessionOut{res, err}
	}()

	// First half of the log, then node 1 departs — its listener dies and the
	// survivors drop it from their rings — then the rest of the log.
	half := len(data) / 2
	if _, err := pw.Write(data[:half]); err != nil {
		t.Fatal(err)
	}
	tc.ts[1].Close()
	if err := tc.srvs[0].SetClusterPeers([]server.PeerAddr{{ID: nodeID(2), URL: tc.ts[2].URL}}); err != nil {
		t.Fatal(err)
	}
	if err := tc.srvs[2].SetClusterPeers([]server.PeerAddr{{ID: nodeID(0), URL: tc.ts[0].URL}}); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(data[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	out := <-done
	if out.err != nil {
		t.Fatalf("session across peer departure failed: %v", out.err)
	}
	if !server.ResultsEquivalent(out.res, offline) {
		t.Errorf("session across peer departure diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, out.res)
	}
}

// TestClusterTenantAttribution: labelled attribution sessions split into
// per-tenant aggregates served by GET /v1/attrib?session=, while the
// unfiltered report lists the known tenants.
func TestClusterTenantAttribution(t *testing.T) {
	data := syntheticLog(t, "word")
	_, c := newTestServer(t, server.Config{KeepWarm: true})
	ctx := context.Background()

	for _, tenant := range []string{"team-a", "team-a", "team-b"} {
		if _, err := c.Session(ctx, client.SessionOptions{SessionConfig: api.SessionConfig{Attrib: true, Tenant: tenant}}, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}

	all, err := c.AttribReport(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"team-a", "team-b"}; !strings.Contains(strings.Join(all.Tenants, ","), strings.Join(want, ",")) {
		t.Errorf("unfiltered report tenants = %v, want %v", all.Tenants, want)
	}
	a, err := c.AttribReport(ctx, "session=team-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AttribReport(ctx, "session=team-b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Session != "team-a" || b.Session != "team-b" {
		t.Errorf("filtered reports echo sessions %q, %q", a.Session, b.Session)
	}
	if a.Regenerations != 2*b.Regenerations {
		t.Errorf("team-a regens = %d, want exactly twice team-b's %d (two identical sessions vs one)", a.Regenerations, b.Regenerations)
	}
	if a.Regenerations+b.Regenerations != all.Regenerations {
		t.Errorf("tenant regens %d+%d do not sum to the server-wide %d", a.Regenerations, b.Regenerations, all.Regenerations)
	}
	// An unknown tenant is an empty report, not an error.
	unknown, err := c.AttribReport(ctx, "session=nobody")
	if err != nil {
		t.Fatal(err)
	}
	if unknown.Regenerations != 0 {
		t.Errorf("unknown tenant reports %d regenerations", unknown.Regenerations)
	}
}
