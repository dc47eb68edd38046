package server

import (
	"sort"
	"sync"

	"repro/internal/cluster"
)

// moduleSpace maps each session's (benchmark, local module) pair onto a
// server-global module ID. Share keys in the shared persistent tier are
// (module, head address), and different benchmarks reuse the same small
// local module numbers for entirely different code — without the remap, a
// gzip session could "adopt" a trace published by a vortex session. The
// mapping is append-only and never persisted as such: a snapshot names each
// record's (benchmark, local module) pair in its module table, and a warm
// start maps the pairs afresh.
type moduleSpace struct {
	mu    sync.Mutex
	byKey map[moduleKey]uint16
	next  uint32
}

type moduleKey struct {
	Bench string
	Local uint16
}

func newModuleSpace() *moduleSpace {
	return &moduleSpace{byKey: make(map[moduleKey]uint16), next: 1}
}

// global resolves (benchmark, local module) to its global ID, allocating one
// on first sight. It fails when the 16-bit global space is exhausted, or for
// a benchmark name too long to be portable — longer than the exchange wire
// and the snapshot module table carry; the caller then skips shared-tier
// interplay for that module (the private replay is unaffected).
func (ms *moduleSpace) global(bench string, local uint16) (uint16, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	k := moduleKey{Bench: bench, Local: local}
	if g, ok := ms.byKey[k]; ok {
		return g, true
	}
	if ms.next > 0xFFFF || len(bench) > cluster.MaxNameLen {
		return 0, false
	}
	g := uint16(ms.next)
	ms.next++
	ms.byKey[k] = g
	return g, true
}

// lookup resolves (benchmark, local module) without allocating: the peer
// lookup endpoint answers for identities this node has already seen, and an
// unknown identity is simply not-found — it must not burn a slot of the
// 16-bit global space on someone else's probe.
func (ms *moduleSpace) lookup(bench string, local uint16) (uint16, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	g, ok := ms.byKey[moduleKey{Bench: bench, Local: local}]
	return g, ok
}

// identities returns the reverse map, global ID back to its portable
// (benchmark, local) pair, in one locked pass: a snapshot resolves every
// record of the shared tier through it.
func (ms *moduleSpace) identities() map[uint16]moduleKey {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make(map[uint16]moduleKey, len(ms.byKey))
	for k, g := range ms.byKey {
		out[g] = k
	}
	return out
}

// benchModules returns every global module ID ever mapped for a benchmark,
// sorted, so callers iterating it (deploy unmaps) act in deterministic
// order.
func (ms *moduleSpace) benchModules(bench string) []uint16 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var out []uint16
	for k, g := range ms.byKey {
		if k.Bench == bench {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
