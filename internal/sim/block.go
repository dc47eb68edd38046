// The batched replay kernel: StepBlock replays a whole decoded EventBlock
// in one call. It exists for the same reason the block decoder does — the
// served ingest path replays tens of millions of events, and per-event Step
// pays a 64-byte Event copy, a kind switch, and a progress-stride check per
// event. The kernel reads the block's columns directly, hoists the kind
// dispatch out of runs of accesses (the overwhelming majority of any log),
// and accumulates the run's counters in registers, flushing them into the
// Result once per run instead of once per event.
//
// Equivalence contract: StepBlock is the only production replay path, and
// per-event Step is its reference. Both produce the same counters, the same
// manager call sequence, the same hook callouts, the same errors at the same
// events, and — with a progress observer attached — the same KindProgress
// events at the same stream positions: the kernel emits progress itself at
// each ProgressStride boundary, ending an access run there so the event
// lands between the same two manager calls it does under Step. The
// equivalence suite in block_test.go holds the kernel to that contract for
// every manager family, observed and detached.
package sim

import (
	"fmt"
	"sync"

	"repro/internal/codecache"
	"repro/internal/tracelog"
)

// StepBlock replays events [0, b.N) of the block. On error, everything
// before the failing event has been replayed and counted — exactly the
// partial result the per-event path leaves — and the failing event is
// included in Events(), as Step counts an event before rejecting it.
func (r *Replayer) StepBlock(b *tracelog.EventBlock) error {
	n := b.N
	kinds := b.Kind
	traces := b.Trace
	for i := 0; i < n; {
		r.progress()
		if kinds[i] != tracelog.KindAccess {
			e := b.Event(i)
			r.count++
			if err := r.step1(&e); err != nil {
				return err
			}
			i++
			continue
		}
		// A run of accesses: one dispatch for the whole run, counters in
		// locals until the run ends. When the manager offers a batched entry
		// point, the leading hits of the run are absorbed in single calls;
		// only misses (and unknown or dead traces, which a hit rules out —
		// the manager can hold nothing the replay did not register) come
		// back to the per-event path here. An observed run stops at the next
		// progress stride, so the progress event falls where Step puts it.
		end := n
		if r.o != nil {
			if stride := i + int(ProgressStride-r.count%ProgressStride); stride < end {
				end = stride
			}
		}
		runEnd := i
		for runEnd < end && kinds[runEnd] == tracelog.KindAccess {
			runEnd++
		}
		var accesses, hits, misses uint64
		j := i
		var err error
		for j < runEnd {
			if r.ra != nil {
				d := r.ra.AccessRun(traces[j:runEnd])
				if d < 0 {
					r.ra = nil
				} else {
					accesses += uint64(d)
					hits += uint64(d)
					j += d
					if j >= runEnd {
						break
					}
				}
			}
			id := traces[j]
			m, ok := r.lookup(id)
			if !ok {
				j++
				err = fmt.Errorf("sim: access to unknown trace %d", id)
				break
			}
			if m.dead {
				j++
				err = fmt.Errorf("sim: access to trace %d from unmapped module %d", id, m.module)
				break
			}
			accesses++
			if r.mgr.Access(id) {
				hits++
			} else {
				misses++
				r.acc.ChargeTraceGen(int(m.size))
				_ = r.mgr.Insert(codecache.Fragment{
					ID: id, Size: uint64(m.size), Module: m.module, HeadAddr: m.head,
				})
				if r.hooks != nil {
					r.hooks.Regenerated(id, m.size, m.module, m.head)
				}
			}
			j++
		}
		r.count += uint64(j - i)
		r.res.Accesses += accesses
		r.res.Hits += hits
		r.res.Misses += misses
		r.res.Regenerations += misses
		if err != nil {
			return err
		}
		i = j
	}
	return nil
}

// scratch is the poolable part of a Replayer: the meta tables every session
// rebuilds from scratch and throws away. A busy server churns through
// thousands of sessions; pooling the tables the way codecache pools arena
// nodes keeps the per-session allocation cost flat.
type scratch struct {
	dense    []meta
	byModule map[uint16][]uint64
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		dense:    make([]meta, 0, 1024),
		byModule: make(map[uint16][]uint64),
	}
}}

// Recycle returns the replayer's meta tables to the pool. Call only when
// done with the replayer; the Result (and its Overhead) stay valid. The
// tables are truncated, not cleared — store() overwrites every slot it
// grows into, so stale entries are unreachable by construction.
func (r *Replayer) Recycle() {
	if r.dense == nil && r.byModule == nil {
		return
	}
	s := &scratch{dense: r.dense[:0], byModule: r.byModule}
	for k := range s.byModule {
		s.byModule[k] = s.byModule[k][:0]
	}
	r.dense, r.byModule, r.spill = nil, nil, nil
	scratchPool.Put(s)
}
