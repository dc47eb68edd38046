// Service-level session lifecycle. A long-running daemon (cmd/gencached)
// multiplexes many short-lived client sessions over one System with a shared
// persistent generation: each session publishes the traces its workload
// promotes, adopts traces earlier sessions already published, and releases
// its references at teardown. The System is the authority for trace identity
// (IDs stay unique across sessions and processes alike) and for the shared
// tier the sessions converge on.

package dbt

import (
	"fmt"
	"sort"

	"repro/internal/codecache"
)

// KeepWarmOwner is the reserved owner ID the system itself holds on shared
// traces it keeps warm across sessions. OpenSession allocates session IDs
// from 1 upward, so the slot never collides with a session.
const KeepWarmOwner = 0

// SetKeepWarm controls whether the system keeps its own reference on every
// trace a session publishes. With it on (the resident-service default), a
// trace outlives its publishing sessions — later sessions adopt it warm —
// and leaves only under capacity pressure; with it off, a trace drains as
// soon as its last owning session unmaps it.
func (s *System) SetKeepWarm(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keepWarm = v
}

// NextTraceID allocates a fresh system-unique trace ID. Insertions that
// happen outside any session — a warm start restoring a snapshot, a peer's
// publication placed into the local shard — draw from the same allocator as
// Publish, so IDs stay unique across every path into the shared tier.
func (s *System) NextTraceID() uint64 { return s.nextTraceID() }

// Session is one client's handle on the system's shared persistent
// generation. Unlike a Process it executes nothing itself — the service
// replays the client's workload however it likes — but it owns the client's
// shared-tier footprint: the traces it published or adopted, keyed by the
// modules they came from, all released (owner-aware) at Close. A Session is
// single-goroutine, like the request handler that drives it.
type Session struct {
	sys *System
	id  int

	// modules are the shared-tier module IDs this session holds references
	// under; Close unmaps each.
	modules map[uint16]struct{}

	adoptions uint64
	published uint64
	closed    bool
}

// OpenSession allocates a session over the system's shared tier. Sessions
// require a shared tier — a system without one has nothing to multiplex.
func (s *System) OpenSession() (*Session, error) {
	if s.shared == nil {
		return nil, fmt.Errorf("dbt: OpenSession on a system without a shared tier")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSess++
	s.sessions++
	return &Session{
		sys:     s,
		id:      s.nextSess,
		modules: make(map[uint16]struct{}),
	}, nil
}

// Sessions returns how many sessions are currently open.
func (s *System) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// ID returns the session's system-unique ID (also its owner ID in the shared
// tier and its Proc stamp in observer events).
func (sess *Session) ID() int { return sess.id }

// Adoptions returns how many shared traces the session has attached to.
func (sess *Session) Adoptions() uint64 { return sess.adoptions }

// Published returns how many traces the session has promoted into the
// shared tier.
func (sess *Session) Published() uint64 { return sess.published }

// Adopt attaches the session to the shared trace published for the given
// code identity, if one is resident and its size matches (a size mismatch
// means a different build of the module — not the same code, not shareable).
// It returns the adopted trace's system ID.
func (sess *Session) Adopt(module uint16, head uint64, size uint64) (uint64, bool) {
	if sess.closed {
		return 0, false
	}
	f, ok := sess.sys.shared.ResidentFragment(module, head)
	if !ok || f.Size != size {
		return 0, false
	}
	if !sess.sys.shared.Attach(sess.id, f.ID) {
		return 0, false
	}
	sess.modules[module] = struct{}{}
	sess.adoptions++
	return f.ID, true
}

// Publish promotes a trace the session's workload earned into the shared
// persistent generation, owned by the session. id is the trace's system ID
// from an earlier Publish of the same trace, or 0 to allocate a fresh one;
// the assigned ID is returned so re-promotions after an eviction keep their
// identity. When the system keeps traces warm it takes its own reference
// too, so the trace survives the session. A non-nil error means the trace
// cannot live in the tier (too big).
func (sess *Session) Publish(id uint64, size uint64, module uint16, head uint64) (uint64, error) {
	if sess.closed {
		return 0, fmt.Errorf("dbt: publish on a closed session")
	}
	if id == 0 {
		id = sess.sys.nextTraceID()
	}
	err := sess.sys.shared.Promote(sess.id, codecache.Fragment{
		ID: id, Size: size, Module: module, HeadAddr: head,
	})
	if err != nil {
		return id, err
	}
	if sess.sys.keepWarmEnabled() {
		sess.sys.shared.AttachWarm(KeepWarmOwner, id)
	}
	sess.modules[module] = struct{}{}
	sess.published++
	return id, nil
}

func (s *System) keepWarmEnabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keepWarm
}

// UnmapModule releases the session's references under one module — the
// workload unloaded it. Owner-aware: traces other sessions (or the system's
// keep-warm reference) still own stay resident; traces whose last owner left
// are drained and returned.
func (sess *Session) UnmapModule(m uint16) []codecache.Fragment {
	if sess.closed {
		return nil
	}
	delete(sess.modules, m)
	return sess.sys.shared.UnmapModule(sess.id, m)
}

// Close tears the session down: every remaining module reference is released
// (owner-aware, in module order, so concurrent teardowns drain
// deterministically per session), and the session leaves the system's count.
// It returns how many traces drained because this session was their last
// owner. Close is idempotent.
func (sess *Session) Close() int {
	if sess.closed {
		return 0
	}
	sess.closed = true
	mods := make([]int, 0, len(sess.modules))
	for m := range sess.modules {
		mods = append(mods, int(m))
	}
	sort.Ints(mods)
	drained := 0
	for _, m := range mods {
		drained += len(sess.sys.shared.UnmapModule(sess.id, uint16(m)))
	}
	sess.modules = nil
	sess.sys.mu.Lock()
	sess.sys.sessions--
	sess.sys.mu.Unlock()
	return drained
}

// Close detaches a process front-end from its system: its shared-tier
// references are released module by module (owner-aware — traces whose last
// owner leaves are drained), and the process leaves the system's process
// list. The engine-level half of session teardown; the process must not be
// used afterwards.
func (e *Process) Close() {
	if e.sys.shared != nil {
		mods := make([]int, 0, len(e.byMod))
		for m := range e.byMod {
			mods = append(mods, int(m))
		}
		sort.Ints(mods)
		for _, m := range mods {
			e.sys.shared.UnmapModule(e.id, uint16(m))
		}
	}
	e.sys.mu.Lock()
	for i, p := range e.sys.procs {
		if p == e {
			e.sys.procs = append(e.sys.procs[:i], e.sys.procs[i+1:]...)
			break
		}
	}
	e.sys.mu.Unlock()
}
