package cluster

import (
	"fmt"
	"sync"

	"repro/internal/codecache"
	"repro/internal/policy"
)

// Remote describes a trace adopted from a peer: where it lives and under
// which owner-local trace ID. IDs are node-local in this system, so the
// (node, traceID) pair is a pointer, not an identity — the identity is the
// cluster Key plus the size match.
type Remote struct {
	Node    string
	TraceID uint64
	Key     Key
	Size    uint64
}

// AdoptionStats counts the cache's traffic.
type AdoptionStats struct {
	Hits      uint64
	Misses    uint64
	Inserted  uint64
	Evicted   uint64
	Resident  int
	UsedBytes uint64
}

// AdoptionCache is the per-node pull-on-miss cache of remote publications:
// an arena governed by a policy from the zoo, exactly like a live tier, so
// the policy selector can race candidates on it. It memoizes successful
// peer lookups — the hot set of cross-node identities — and never holds
// trace bodies, only the (node, traceID, size) records adoption accounting
// needs.
type AdoptionCache struct {
	mu     sync.Mutex
	arena  *codecache.Arena
	pol    policy.Local
	nextID uint64
	// freeIDs holds the IDs of records that left. Put reuses them, so the
	// ID space, and with it the arena's and the policy's per-ID tables,
	// stays the size of the cache instead of growing with its traffic.
	freeIDs []uint64
	byKey   map[Key]uint64 // cluster key → arena-local ID
	info    map[uint64]Remote
	stats   AdoptionStats
}

// NewAdoptionCache builds a cache of capacityBytes governed by the policy
// spec ("lru", "trrip:cold=4", ... — anything policy.Parse accepts).
func NewAdoptionCache(capacityBytes uint64, policySpec string) (*AdoptionCache, error) {
	if capacityBytes == 0 {
		return nil, fmt.Errorf("cluster: zero-capacity adoption cache")
	}
	f, err := policy.Parse(policySpec)
	if err != nil {
		return nil, fmt.Errorf("cluster: adoption cache policy: %w", err)
	}
	return &AdoptionCache{
		arena: codecache.New(capacityBytes),
		pol:   f.New(),
		byKey: make(map[Key]uint64),
		info:  make(map[uint64]Remote),
	}, nil
}

// Get returns the cached remote record for a key when present and
// size-matched; a size mismatch is treated as a miss (the peer's publication
// changed) and the stale record is dropped.
func (c *AdoptionCache) Get(k Key, size uint64) (Remote, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.byKey[k]
	if !ok {
		c.stats.Misses++
		return Remote{}, false
	}
	r := c.info[id]
	if r.Size != size {
		c.dropLocked(id)
		c.stats.Misses++
		return Remote{}, false
	}
	c.arena.Access(id)
	c.pol.OnAccess(c.arena, id)
	c.stats.Hits++
	return r, true
}

// Put records a successful peer lookup. An existing record for the key is
// replaced. Insertion failures (the record is larger than the whole cache)
// are silently dropped — the cache is a memo, not a correctness surface.
func (c *AdoptionCache) Put(r Remote) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.byKey[r.Key]; ok {
		c.dropLocked(id)
	}
	var id uint64
	if n := len(c.freeIDs); n > 0 {
		id, c.freeIDs = c.freeIDs[n-1], c.freeIDs[:n-1]
	} else {
		c.nextID++
		id = c.nextID
	}
	f := codecache.Fragment{ID: id, Size: r.Size, Module: r.Key.Module, HeadAddr: r.Key.Head}
	err := c.pol.Insert(c.arena, f, func(victim codecache.Fragment) {
		c.evictLocked(victim.ID)
	})
	if err != nil {
		c.freeIDs = append(c.freeIDs, id)
		return
	}
	c.byKey[r.Key] = id
	c.info[id] = r
	c.stats.Inserted++
}

// Drop removes a key (a failed remote adoption invalidates the memo).
func (c *AdoptionCache) Drop(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.byKey[k]; ok {
		c.dropLocked(id)
	}
}

// DropNode removes every record learned from one node (a departed peer's
// trace IDs are meaningless after it leaves) and returns how many went.
func (c *AdoptionCache) DropNode(node string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []uint64
	for id, r := range c.info {
		if r.Node == node {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		c.dropLocked(id)
	}
	return len(ids)
}

// dropLocked removes id from the arena and both maps.
func (c *AdoptionCache) dropLocked(id uint64) {
	c.arena.Delete(id, true)
	c.evictLocked(id)
}

// evictLocked cleans the maps after the arena let go of id (policy eviction
// or forced delete).
func (c *AdoptionCache) evictLocked(id uint64) {
	r, ok := c.info[id]
	if !ok {
		return
	}
	delete(c.info, id)
	if cur, ok := c.byKey[r.Key]; ok && cur == id {
		delete(c.byKey, r.Key)
	}
	c.freeIDs = append(c.freeIDs, id)
	c.stats.Evicted++
}

// Stats snapshots the cache counters.
func (c *AdoptionCache) Stats() AdoptionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = len(c.info)
	s.UsedBytes = c.arena.Used()
	return s
}

// PolicyName reports the governing policy's name.
func (c *AdoptionCache) PolicyName() string { return c.pol.Name() }
