package experiments

import "testing"

// TestClusterVsIsolated runs the cluster study as `gencached cluster` does by
// default: three nodes, twelve gzip and word sessions, every session verified
// against its offline replay. The distributed shared tier must adopt across
// nodes, verify bit-identical in both arms, fingerprint identically over two
// runs, and pay fewer generations than the isolated nodes.
func TestClusterVsIsolated(t *testing.T) {
	res, err := ClusterVsIsolated(ClusterVsIsolatedOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("paid generations: isolated %d, cluster %d; %d cross-node adoptions, %d replicated",
		res.Isolated.PaidGens(), res.Cluster.PaidGens(), res.Cluster.PeerAdoptions, res.Replicated)
	if res.Cluster.PeerAdoptions == 0 {
		t.Error("no adoption crossed nodes")
	}
	if res.Isolated.VerifyFailed != 0 || res.Cluster.VerifyFailed != 0 {
		t.Errorf("verification divergences: isolated %d, cluster %d", res.Isolated.VerifyFailed, res.Cluster.VerifyFailed)
	}
	if !res.Deterministic {
		t.Error("two runs of the cluster arm fingerprint differently")
	}
	if res.Cluster.PaidGens() >= res.Isolated.PaidGens() {
		t.Errorf("cluster paid %d generations, isolated %d", res.Cluster.PaidGens(), res.Isolated.PaidGens())
	}
	if !res.ClusterWins {
		t.Error("ClusterWins = false")
	}
}
