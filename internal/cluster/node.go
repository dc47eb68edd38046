package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/persist"
	"repro/internal/simclock"
)

// Transport is one peer's side of the trace-exchange protocol. The HTTP
// transport (http.go) is the production implementation; tests may inject
// in-process fakes.
type Transport interface {
	// Lookup asks whether the peer's shard holds a size-matched publication.
	Lookup(ctx context.Context, q LookupRequest) (LookupResponse, error)
	// Replicate pushes a batch of publications to the peer.
	Replicate(ctx context.Context, q ReplicateRequest) (ReplicateResponse, error)
	// Snapshot fetches the peer's publications for the given shards as a
	// persist image, whose module table makes the records portable.
	Snapshot(ctx context.Context, shards []int) (persist.Image, error)
}

// Peer names a cluster member and how to reach it.
type Peer struct {
	ID        string
	Transport Transport
}

// Config configures a Node.
type Config struct {
	// NodeID is this node's member ID; it must be unique in the cluster.
	NodeID string
	// Shards is the shard count; every member must agree on it. Default 64.
	Shards int
	// AdoptionCacheBytes sizes the pull-on-miss cache. Default 1 MiB.
	AdoptionCacheBytes uint64
	// AdoptionPolicy governs the cache ("lru", "trrip", ...). Default "lru".
	AdoptionPolicy string
	// Clock is the time plane peer-lookup latency is measured on; it must be
	// the serving layer's clock so virtual days stay deterministic. Default
	// the real clock.
	Clock simclock.Clock
}

// Stats counts the node's exchange traffic. LookupSeconds accumulates
// peer-lookup latency on the node's clock plane; with the count it yields
// the mean the metrics endpoint exports.
type Stats struct {
	PeerAdoptions     uint64 // cross-node adoptions served (cache or lookup)
	PeerLookups       uint64 // lookups actually sent to a peer
	PeerLookupMisses  uint64 // peer answered not-found or size-mismatched
	PeerLookupErrors  uint64 // transport failures (departed or broken peers)
	Replicated        uint64 // records accepted by shard owners
	ReplicateRejected uint64 // records a shard owner refused
	ReplicateDropped  uint64 // records dropped on transport failure
	LookupSeconds     float64
	Adoption          AdoptionStats
}

// Node is one member's view of the distributed shared tier: the ring, the
// peer transports, the adoption cache, and the pending-replication queue.
// The serving layer drives it — NotePublish on every shared-tier
// publication, RemoteAdopt on every local adoption miss, FlushReplication
// from whatever cadence the deployment wants (a ticker in the live daemon,
// a fixed point in deterministic drivers — replication is asynchronous
// either way, the session never waits on it).
type Node struct {
	cfg Config

	mu      sync.Mutex
	ring    *Ring
	peers   map[string]Transport
	pending []Replica
	stats   Stats

	cache *AdoptionCache
}

// New builds a node over its peers. The ring covers the node itself plus
// every peer.
func New(cfg Config, peers []Peer) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	if len(cfg.NodeID) > MaxNameLen {
		return nil, fmt.Errorf("cluster: node ID longer than %d bytes", MaxNameLen)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 64
	}
	if cfg.AdoptionCacheBytes == 0 {
		cfg.AdoptionCacheBytes = 1 << 20
	}
	if cfg.AdoptionPolicy == "" {
		cfg.AdoptionPolicy = "lru"
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	cache, err := NewAdoptionCache(cfg.AdoptionCacheBytes, cfg.AdoptionPolicy)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, cache: cache}
	if err := n.SetPeers(peers); err != nil {
		return nil, err
	}
	return n, nil
}

// ID returns the node's member ID.
func (n *Node) ID() string { return n.cfg.NodeID }

// Ring returns the current membership's ring.
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// SetPeers replaces the peer set (join/leave) and rebuilds the ring over
// self + peers. Records cached from departed peers are dropped — their
// trace IDs are dangling.
func (n *Node) SetPeers(peers []Peer) error {
	ids := []string{n.cfg.NodeID}
	transports := make(map[string]Transport, len(peers))
	for _, p := range peers {
		if p.ID == n.cfg.NodeID {
			return fmt.Errorf("cluster: peer list contains this node (%s)", p.ID)
		}
		if p.Transport == nil {
			return fmt.Errorf("cluster: peer %s has no transport", p.ID)
		}
		if _, dup := transports[p.ID]; dup {
			return fmt.Errorf("cluster: duplicate peer %s", p.ID)
		}
		ids = append(ids, p.ID)
		transports[p.ID] = p.Transport
	}
	ring, err := NewRing(n.cfg.Shards, ids)
	if err != nil {
		return err
	}
	n.mu.Lock()
	old := n.peers
	n.ring = ring
	n.peers = transports
	n.mu.Unlock()
	for id := range old {
		if _, still := transports[id]; !still {
			n.cache.DropNode(id)
		}
	}
	return nil
}

// Peers returns the current peer IDs, sorted.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Transport returns the transport to one current peer, or nil when the ID
// is not a member — snapshot bootstrap walks the membership through this.
func (n *Node) Transport(id string) Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[id]
}

// OwnedShards returns the shards this node owns under the current ring.
func (n *Node) OwnedShards() []int { return n.Ring().Owned(n.cfg.NodeID) }

// NotePublish queues a local publication for replication to its shard
// owner. Publications this node owns need no replication (the local shared
// tier is the shard) and return false.
func (n *Node) NotePublish(k Key, size uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring.OwnerOf(k) == n.cfg.NodeID {
		return false
	}
	n.pending = append(n.pending, Replica{Key: k, Size: size, Shard: uint32(k.Shard(n.ring.Shards()))})
	return true
}

// PendingReplication returns the queued record count.
func (n *Node) PendingReplication() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// FlushReplication drains the queue, batching records by owner (owners in
// sorted order, records in queue order — deterministic). Transport failures
// drop the batch: replication is best-effort, the owner's state converges
// through later publications and snapshot bootstrap. Returns the number of
// records accepted by owners.
func (n *Node) FlushReplication(ctx context.Context) int {
	n.mu.Lock()
	queue := n.pending
	n.pending = nil
	ring := n.ring
	n.mu.Unlock()
	if len(queue) == 0 {
		return 0
	}

	byOwner := make(map[string][]Replica)
	var owners []string
	for _, r := range queue {
		owner := ring.Owner(int(r.Shard))
		if owner == n.cfg.NodeID {
			continue // membership changed; we own it now
		}
		if _, ok := byOwner[owner]; !ok {
			owners = append(owners, owner)
		}
		byOwner[owner] = append(byOwner[owner], r)
	}
	sort.Strings(owners)

	accepted := 0
	for _, owner := range owners {
		n.mu.Lock()
		tr := n.peers[owner]
		n.mu.Unlock()
		recs := byOwner[owner]
		if tr == nil {
			n.addStats(func(s *Stats) { s.ReplicateDropped += uint64(len(recs)) })
			continue
		}
		for len(recs) > 0 {
			batch := recs
			if len(batch) > MaxBatch {
				batch = batch[:MaxBatch]
			}
			recs = recs[len(batch):]
			resp, err := tr.Replicate(ctx, ReplicateRequest{Origin: n.cfg.NodeID, Records: batch})
			if err != nil {
				n.addStats(func(s *Stats) { s.ReplicateDropped += uint64(len(batch)) })
				continue
			}
			accepted += int(resp.Accepted)
			n.addStats(func(s *Stats) {
				s.Replicated += uint64(resp.Accepted)
				s.ReplicateRejected += uint64(resp.Rejected)
			})
		}
	}
	return accepted
}

// RemoteAdopt resolves a local adoption miss against the cluster:
// the adoption cache first, then a pull-on-miss lookup to the shard owner.
// It returns the serving record on success. Keys this node owns never go
// remote — the local shared tier already answered authoritatively.
func (n *Node) RemoteAdopt(ctx context.Context, k Key, size uint64) (Remote, bool) {
	n.mu.Lock()
	ring := n.ring
	n.mu.Unlock()
	owner := ring.OwnerOf(k)
	if owner == n.cfg.NodeID {
		return Remote{}, false
	}
	if r, ok := n.cache.Get(k, size); ok {
		n.addStats(func(s *Stats) { s.PeerAdoptions++ })
		return r, true
	}
	n.mu.Lock()
	tr := n.peers[owner]
	n.mu.Unlock()
	if tr == nil {
		n.addStats(func(s *Stats) { s.PeerLookupErrors++ })
		return Remote{}, false
	}
	q := LookupRequest{Key: k, Size: size, Shard: uint32(k.Shard(ring.Shards()))}
	start := n.cfg.Clock.Now()
	resp, err := tr.Lookup(ctx, q)
	elapsed := n.cfg.Clock.Since(start).Seconds()
	if err != nil {
		n.addStats(func(s *Stats) {
			s.PeerLookups++
			s.PeerLookupErrors++
			s.LookupSeconds += elapsed
		})
		return Remote{}, false
	}
	if !resp.Found || resp.Size != size {
		n.addStats(func(s *Stats) {
			s.PeerLookups++
			s.PeerLookupMisses++
			s.LookupSeconds += elapsed
		})
		return Remote{}, false
	}
	r := Remote{Node: owner, TraceID: resp.TraceID, Key: k, Size: size}
	n.cache.Put(r)
	n.addStats(func(s *Stats) {
		s.PeerLookups++
		s.PeerAdoptions++
		s.LookupSeconds += elapsed
	})
	return r, true
}

func (n *Node) addStats(f func(*Stats)) {
	n.mu.Lock()
	f(&n.stats)
	n.mu.Unlock()
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	s := n.stats
	n.mu.Unlock()
	s.Adoption = n.cache.Stats()
	return s
}

// Cache exposes the adoption cache (metrics and tests).
func (n *Node) Cache() *AdoptionCache { return n.cache }
