// Package cluster shards the gencached shared persistent tier across nodes.
//
// The single-machine service keeps one in-process core.SharedPersistent; the
// cluster splits that publish table into a fixed number of shards and
// assigns each shard to one node with rendezvous (highest-random-weight)
// hashing over the member set. Publishes stay local and replicate
// asynchronously to the shard owner; lookups that miss the local tier pull
// from the owner on demand through a small per-node adoption cache (an
// arena governed by a policy from the zoo). The exchange protocol is a
// versioned binary wire format (wire.go) spoken over HTTP (http.go), and
// shard bootstrap reuses the persist snapshot format.
//
// Everything here is deterministic: the ring is a pure function of the
// sorted member IDs and the shard count, the wire format has no maps or
// randomized iteration, and the node measures latency through an injected
// simclock.Clock — so a simulated multi-node day is byte-reproducible.
package cluster

import (
	"fmt"
	"sort"
)

// Key is the cluster-wide identity of a publishable trace. It is the
// portable form of the shared tier's (module, head address) identity:
// server-global module IDs are allocated per node in arrival order and
// therefore mean nothing across machines, so
// the exchange protocol keys on the (benchmark, log-local module, head
// address) triple every node can resolve through its own module namespace.
type Key struct {
	Bench  string
	Module uint16 // log-local module ID (not the node-global remap)
	Head   uint64
}

// FNV-1a 64-bit, inlined so the ring has no dependencies and hashes
// identically everywhere.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// Shard maps the key onto [0, shards) by FNV-1a over its fields. The
// function is the one shard grammar of the system: nodes, drivers, and the
// snapshot filter all place a key the same way.
func (k Key) Shard(shards int) int {
	h := fnvString(fnvOffset, k.Bench)
	h = fnvByte(h, 0) // separate bench from the numeric fields
	h = fnvU64(h, uint64(k.Module))
	h = fnvU64(h, k.Head)
	return int(h % uint64(shards))
}

// Ring is the deterministic shard→node assignment: rendezvous hashing over
// the sorted member IDs. Rendezvous gives the minimal-movement property the
// rebalance tests pin down — when a node joins or leaves, the only shards
// that change owner are the ones moving to or from that node.
type Ring struct {
	shards int
	nodes  []string // sorted, deduplicated
	owner  []string // shard → node, precomputed
}

// MaxShards bounds the shard space; the wire decoders reject shard IDs at
// or above it.
const MaxShards = 1 << 16

// NewRing builds a ring over the member IDs. Membership order does not
// matter (the ring sorts); duplicates are collapsed.
func NewRing(shards int, nodes []string) (*Ring, error) {
	if shards <= 0 || shards > MaxShards {
		return nil, fmt.Errorf("cluster: shard count %d out of range (1..%d)", shards, MaxShards)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	dedup := sorted[:0]
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if i > 0 && n == sorted[i-1] {
			continue
		}
		dedup = append(dedup, n)
	}
	r := &Ring{shards: shards, nodes: dedup, owner: make([]string, shards)}
	for s := range r.owner {
		r.owner[s] = r.rendezvous(s)
	}
	return r, nil
}

// rendezvous picks the member with the highest hash for the shard; ties
// break toward the lexically smaller ID so the assignment is total.
func (r *Ring) rendezvous(shard int) string {
	best, bestH := "", uint64(0)
	for _, n := range r.nodes {
		h := fnvU64(fnvString(fnvOffset, n), uint64(shard))
		if best == "" || h > bestH || (h == bestH && n < best) {
			best, bestH = n, h
		}
	}
	return best
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Nodes returns the sorted member IDs (not a copy; callers must not mutate).
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning a shard.
func (r *Ring) Owner(shard int) string { return r.owner[shard] }

// OwnerOf returns the node owning a key's shard.
func (r *Ring) OwnerOf(k Key) string { return r.owner[k.Shard(r.shards)] }

// Owned returns the shards a node owns, ascending. Unknown nodes own
// nothing.
func (r *Ring) Owned(node string) []int {
	var out []int
	for s, n := range r.owner {
		if n == node {
			out = append(out, s)
		}
	}
	return out
}
