package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/persist"
)

// fakePeer is an in-process Transport over a map of publications.
type fakePeer struct {
	pubs      map[Key]LookupResponse
	accepted  []Replica
	lookupErr error
	lookups   int
}

func (p *fakePeer) Lookup(_ context.Context, q LookupRequest) (LookupResponse, error) {
	p.lookups++
	if p.lookupErr != nil {
		return LookupResponse{}, p.lookupErr
	}
	r, ok := p.pubs[q.Key]
	if !ok {
		return LookupResponse{}, nil
	}
	if r.Size != q.Size {
		return LookupResponse{}, nil
	}
	return r, nil
}

func (p *fakePeer) Replicate(_ context.Context, q ReplicateRequest) (ReplicateResponse, error) {
	if p.lookupErr != nil {
		return ReplicateResponse{}, p.lookupErr
	}
	p.accepted = append(p.accepted, q.Records...)
	return ReplicateResponse{Accepted: uint32(len(q.Records))}, nil
}

func (p *fakePeer) Snapshot(context.Context, []int) (persist.Image, error) {
	return persist.Image{}, errors.New("not implemented")
}

// keyOwnedBy hunts for a key whose shard the ring assigns to the wanted
// node — the deterministic way tests steer placement.
func keyOwnedBy(t *testing.T, r *Ring, node, bench string) Key {
	t.Helper()
	for head := uint64(0); head < 4096; head++ {
		k := Key{Bench: bench, Module: 1, Head: head}
		if r.OwnerOf(k) == node {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 4096 tries", node)
	return Key{}
}

func newTestNode(t *testing.T, peers []Peer) *Node {
	t.Helper()
	n, err := New(Config{NodeID: "self", Shards: 64, AdoptionCacheBytes: 1 << 16}, peers)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRemoteAdoptPullOnMiss: a remote hit is served by the owner once, then
// by the adoption cache.
func TestRemoteAdoptPullOnMiss(t *testing.T) {
	peer := &fakePeer{pubs: make(map[Key]LookupResponse)}
	n := newTestNode(t, []Peer{{ID: "peer0", Transport: peer}})
	k := keyOwnedBy(t, n.Ring(), "peer0", "gzip")
	peer.pubs[k] = LookupResponse{Found: true, TraceID: 77, Size: 256}

	r, ok := n.RemoteAdopt(context.Background(), k, 256)
	if !ok || r.Node != "peer0" || r.TraceID != 77 {
		t.Fatalf("RemoteAdopt = %+v, %v", r, ok)
	}
	if _, ok := n.RemoteAdopt(context.Background(), k, 256); !ok {
		t.Fatal("second adopt missed")
	}
	if peer.lookups != 1 {
		t.Fatalf("peer saw %d lookups, want 1 (cache should serve the second)", peer.lookups)
	}
	s := n.Stats()
	if s.PeerAdoptions != 2 || s.PeerLookups != 1 || s.Adoption.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestRemoteAdoptMissAndError: not-found, size-mismatch, and transport
// failure all come back as clean misses.
func TestRemoteAdoptMissAndError(t *testing.T) {
	peer := &fakePeer{pubs: make(map[Key]LookupResponse)}
	n := newTestNode(t, []Peer{{ID: "peer0", Transport: peer}})
	k := keyOwnedBy(t, n.Ring(), "peer0", "gzip")

	if _, ok := n.RemoteAdopt(context.Background(), k, 128); ok {
		t.Fatal("adopted an unpublished key")
	}
	peer.pubs[k] = LookupResponse{Found: true, TraceID: 5, Size: 999}
	if _, ok := n.RemoteAdopt(context.Background(), k, 128); ok {
		t.Fatal("adopted across a size mismatch")
	}
	peer.lookupErr = errors.New("down")
	if _, ok := n.RemoteAdopt(context.Background(), k, 128); ok {
		t.Fatal("adopted from a dead peer")
	}
	s := n.Stats()
	if s.PeerLookupMisses != 2 || s.PeerLookupErrors != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Keys this node owns never go remote.
	own := keyOwnedBy(t, n.Ring(), "self", "gzip")
	before := peer.lookups
	if _, ok := n.RemoteAdopt(context.Background(), own, 64); ok {
		t.Fatal("went remote for an owned key")
	}
	if peer.lookups != before {
		t.Fatal("owned-key adopt hit the transport")
	}
}

// TestReplicationQueueAndFlush: publishes queue for their owners and drain
// deterministically; owned keys never queue.
func TestReplicationQueueAndFlush(t *testing.T) {
	p0 := &fakePeer{pubs: make(map[Key]LookupResponse)}
	p1 := &fakePeer{pubs: make(map[Key]LookupResponse)}
	n := newTestNode(t, []Peer{{ID: "peer0", Transport: p0}, {ID: "peer1", Transport: p1}})

	k0 := keyOwnedBy(t, n.Ring(), "peer0", "gzip")
	k1 := keyOwnedBy(t, n.Ring(), "peer1", "gzip")
	own := keyOwnedBy(t, n.Ring(), "self", "gzip")

	if !n.NotePublish(k0, 100) || !n.NotePublish(k1, 200) {
		t.Fatal("peer-owned publish did not queue")
	}
	if n.NotePublish(own, 300) {
		t.Fatal("self-owned publish queued")
	}
	if got := n.PendingReplication(); got != 2 {
		t.Fatalf("pending = %d", got)
	}
	if sent := n.FlushReplication(context.Background()); sent != 2 {
		t.Fatalf("flushed %d", sent)
	}
	if len(p0.accepted) != 1 || p0.accepted[0].Key != k0 {
		t.Fatalf("peer0 got %+v", p0.accepted)
	}
	if len(p1.accepted) != 1 || p1.accepted[0].Key != k1 {
		t.Fatalf("peer1 got %+v", p1.accepted)
	}
	if n.PendingReplication() != 0 {
		t.Fatal("queue not drained")
	}
	if n.FlushReplication(context.Background()) != 0 {
		t.Fatal("empty flush sent records")
	}
}

// TestFlushDropsOnDeadPeer: a transport failure drops the batch and counts
// it; the queue still drains.
func TestFlushDropsOnDeadPeer(t *testing.T) {
	p0 := &fakePeer{lookupErr: errors.New("down")}
	n := newTestNode(t, []Peer{{ID: "peer0", Transport: p0}})
	k := keyOwnedBy(t, n.Ring(), "peer0", "gzip")
	n.NotePublish(k, 64)
	if sent := n.FlushReplication(context.Background()); sent != 0 {
		t.Fatalf("sent %d to a dead peer", sent)
	}
	if s := n.Stats(); s.ReplicateDropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if n.PendingReplication() != 0 {
		t.Fatal("dropped records stayed queued")
	}
}

// TestSetPeersRebalances: a departure rebuilds the ring and drops the
// departed node's cached records.
func TestSetPeersRebalances(t *testing.T) {
	p0 := &fakePeer{pubs: make(map[Key]LookupResponse)}
	p1 := &fakePeer{pubs: make(map[Key]LookupResponse)}
	n := newTestNode(t, []Peer{{ID: "peer0", Transport: p0}, {ID: "peer1", Transport: p1}})

	k := keyOwnedBy(t, n.Ring(), "peer0", "gzip")
	p0.pubs[k] = LookupResponse{Found: true, TraceID: 8, Size: 64}
	if _, ok := n.RemoteAdopt(context.Background(), k, 64); !ok {
		t.Fatal("seed adopt failed")
	}
	if err := n.SetPeers([]Peer{{ID: "peer1", Transport: p1}}); err != nil {
		t.Fatal(err)
	}
	if got := n.Ring().Nodes(); len(got) != 2 {
		t.Fatalf("ring nodes = %v", got)
	}
	if s := n.Cache().Stats(); s.Resident != 0 {
		t.Fatalf("departed peer's records survived: %+v", s)
	}
	for s := 0; s < n.Ring().Shards(); s++ {
		if owner := n.Ring().Owner(s); owner == "peer0" {
			t.Fatalf("shard %d still owned by the departed peer", s)
		}
	}
}

// TestNodeConfigValidation: busted configurations fail closed.
func TestNodeConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("empty node ID accepted")
	}
	if _, err := New(Config{NodeID: "self"}, []Peer{{ID: "self", Transport: &fakePeer{}}}); err == nil {
		t.Error("self in peer list accepted")
	}
	if _, err := New(Config{NodeID: "self"}, []Peer{{ID: "p", Transport: nil}}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New(Config{NodeID: "self"}, []Peer{
		{ID: "p", Transport: &fakePeer{}}, {ID: "p", Transport: &fakePeer{}},
	}); err == nil {
		t.Error("duplicate peer accepted")
	}
	if _, err := New(Config{NodeID: "self", AdoptionPolicy: "no-such-policy"}, nil); err == nil {
		t.Error("unknown adoption policy accepted")
	}
}

// TestAdoptionCacheEviction: the cache is a real arena under a real policy —
// filling it past capacity evicts and the maps stay consistent.
func TestAdoptionCacheEviction(t *testing.T) {
	c, err := NewAdoptionCache(256, "lru")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		k := Key{Bench: "gzip", Module: 1, Head: uint64(i)}
		c.Put(Remote{Node: "peer0", TraceID: uint64(i), Key: k, Size: 64})
	}
	s := c.Stats()
	if s.Evicted == 0 {
		t.Fatal("no evictions at 16x capacity pressure")
	}
	if s.UsedBytes > 256 {
		t.Fatalf("used %d bytes of 256", s.UsedBytes)
	}
	if s.Resident > 4 {
		t.Fatalf("resident %d records of 64 bytes in a 256-byte cache", s.Resident)
	}
	// IDs of departed records are reused: the ID space stays one past the
	// resident count, however many records have passed through.
	if c.nextID > 5 {
		t.Fatalf("%d IDs handed out for at most 4 residents", c.nextID)
	}
	// The newest key must be resident; a hit refreshes it.
	last := Key{Bench: "gzip", Module: 1, Head: 15}
	if _, ok := c.Get(last, 64); !ok {
		t.Fatal("most recent record evicted")
	}
	// Size mismatch invalidates.
	if _, ok := c.Get(last, 65); ok {
		t.Fatal("size mismatch served")
	}
	if _, ok := c.Get(last, 64); ok {
		t.Fatal("stale record survived the mismatch")
	}
}

func ExampleRing() {
	r, _ := NewRing(8, []string{"node0", "node1"})
	k := Key{Bench: "gzip", Module: 1, Head: 0x400}
	fmt.Println(r.OwnerOf(k) == r.Owner(k.Shard(8)))
	// Output: true
}
