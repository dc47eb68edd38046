package server

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"repro/internal/attrib"
	"repro/internal/cluster"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracelog"
)

// countingReader tallies how many body bytes a session consumed.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// ndjsonWriter serializes StreamLines for an events-mode response. It is
// written only from the session's own goroutine: private-manager events fire
// inside the replay, and shared-tier events routed to this session are, by
// construction, caused by this session's own calls.
//
// Event lines, from the private manager and from the router alike, go
// through Observe and api.AppendEventLine into a reused line buffer, so they
// allocate nothing; the closing result or error line goes through the JSON
// encoder.
type ndjsonWriter struct {
	srv     *Server // stamps event lines with its node ID
	bw      *bufio.Writer
	enc     *json.Encoder
	line    []byte
	flusher http.Flusher
	err     error
}

func newNDJSONWriter(srv *Server, w http.ResponseWriter) *ndjsonWriter {
	nw := &ndjsonWriter{srv: srv, bw: bufio.NewWriterSize(w, 32<<10)}
	nw.enc = json.NewEncoder(nw.bw)
	nw.flusher, _ = w.(http.Flusher)
	return nw
}

// Observe implements obs.Observer: it writes e as an event line, flushing
// the response on progress events so the client sees the replay advance.
func (nw *ndjsonWriter) Observe(e obs.Event) { nw.event(&e) }

// event is Observe for a caller that holds the event by pointer.
func (nw *ndjsonWriter) event(e *obs.Event) {
	if nw.err != nil {
		return
	}
	w := api.FromObs(*e)
	nw.srv.tagNode(&w)
	nw.line = api.AppendEventLine(nw.line[:0], &w)
	_, nw.err = nw.bw.Write(nw.line)
	if e.Kind == obs.KindProgress {
		nw.flush()
	}
}

// write encodes a closing line: the result or a terminal error.
func (nw *ndjsonWriter) write(line api.StreamLine) {
	if nw.err != nil {
		return
	}
	nw.err = nw.enc.Encode(line)
}

func (nw *ndjsonWriter) flush() {
	if nw.err == nil {
		nw.err = nw.bw.Flush()
	}
	if nw.err == nil && nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// identKey names one piece of guest code by log-local module and head: the
// portable cluster namespace the remote-adoption tally is keyed in.
type identKey struct {
	module uint16
	head   uint64
}

// identState tracks the session's relationship with one code identity.
type identState struct {
	gid     uint64 // shared-tier trace ID, once known (adopted or published)
	adopted bool   // session currently holds an adoption ref
}

// sessionModule is the session's view of one log-local module.
type sessionModule struct {
	gmod     uint16 // global module ID, valid when shared
	resolved bool   // gmod has been looked up
	shared   bool   // the module has a global ID, so it can be shared
	// held records that the session holds shared-tier references under
	// gmod; Unmapped and close release them.
	held bool
	// idents holds the session's state for each identity in the module,
	// keyed by head address.
	idents map[uint64]*identState
}

// sessionRun carries one session's replay plus its shared-tier interplay.
//
// The replay itself runs against a fully private manager via the same
// sim.Replayer the offline simulator uses, so the session's result is
// bit-identical to `ccsim` on the same log regardless of what concurrent
// sessions do. The shared tier rides alongside, attached through the
// replayer's sim.Hooks callouts: Registered (KindCreate/KindAdopt) and
// Regenerated (conflict misses) probe it for an adoptable trace, private
// promotions into the persistent generation publish to it, and Unmapped
// releases the session's references — all bookkeeping layered beside the
// replay, never inside it. The session owns its share of the tier: the
// references it holds under its ID, all released by close.
type sessionRun struct {
	srv *Server
	id  int // the session's ID: its owner ID in the shared tier, its events' Proc
	rep *sim.Replayer
	led *attrib.Ledger // nil unless the session asked for attribution

	bench string
	mods  []sessionModule // indexed by log-local module

	// remote tracks identities (keyed by log-local module — the portable
	// cluster namespace) whose generation cost a peer node absorbed, so the
	// peer-adoption count and savings are once per identity.
	remote map[identKey]bool

	adoptions     uint64 // distinct identities adopted
	published     uint64 // distinct identities published
	peerAdoptions uint64 // distinct identities served by a peer node
	savedGen      float64

	// acc is the replay's cost accumulator, charged by Observe; tally counts
	// the private manager's events until fold adds them to the server's
	// counter.
	acc   *costmodel.Accum
	tally stats.Tally

	enc *ndjsonWriter // nil unless events mode
}

// newSessionRun opens a session on srv under a fresh session ID. Its caller
// defers close, the session's drain, and sets enc in events mode.
func newSessionRun(srv *Server) *sessionRun {
	return &sessionRun{srv: srv, id: int(srv.sessionIDs.Add(1))}
}

// module returns the session's entry for a log-local module, mapping the
// module into the server-global namespace on first sight, or nil when the
// module cannot be shared: the 16-bit global space is exhausted or the
// benchmark name is too long (see moduleSpace.global). The replay is
// unaffected either way. The pointer is valid until the next call.
func (sr *sessionRun) module(local uint16) *sessionModule {
	if n := int(local) + 1; n > len(sr.mods) {
		sr.mods = append(sr.mods, make([]sessionModule, n-len(sr.mods))...)
	}
	m := &sr.mods[local]
	if !m.resolved {
		m.resolved = true
		m.gmod, m.shared = sr.srv.mods.global(sr.bench, local)
		if m.shared {
			m.idents = make(map[uint64]*identState)
		}
	}
	if !m.shared {
		return nil
	}
	return m
}

// ident returns the session's state for a code identity and its module's
// entry, creating the state on first sight; both are nil when the module
// cannot be shared. The module pointer is valid until the next call.
func (sr *sessionRun) ident(local uint16, head uint64) (*sessionModule, *identState) {
	m := sr.module(local)
	if m == nil {
		return nil, nil
	}
	st := m.idents[head]
	if st == nil {
		st = &identState{}
		m.idents[head] = st
	}
	return m, st
}

// Observe implements obs.Observer as the private manager's one observer,
// the session's sink. In order, it charges the event to the cost model
// (sim.Charge, as offline replay's CostObserver does), counts it in the
// session's tally, records a live-policy switch, writes the NDJSON line in
// events mode, and publishes a promotion into the persistent generation.
func (sr *sessionRun) Observe(e obs.Event) {
	sim.Charge(sr.acc, &e)
	sr.tally.Add(&e)
	if e.Kind == obs.KindPolicySwitch {
		sr.srv.trackPolicy(&e)
	}
	if sr.enc != nil {
		sr.enc.event(&e)
	}
	if e.Kind == obs.KindPromote && e.To == obs.LevelPersistent {
		sr.publish(e.Trace)
	}
}

// fold adds the session's tally to the server's event counter. replayLog
// calls it after every block and once when the replay ends, so /metrics
// trails a running session by at most one block. A nil sr (offline replay)
// has nothing to fold.
func (sr *sessionRun) fold() {
	if sr != nil {
		sr.tally.Fold(sr.srv.counter)
	}
}

// publish offers the shared tier a trace the private manager promoted into
// the session's persistent generation: that promotion is the paper's signal
// that the trace earned long-term residency.
func (sr *sessionRun) publish(trace uint64) {
	if sr.rep == nil {
		return
	}
	size, module, head, ok := sr.rep.TraceInfo(trace)
	if !ok {
		return
	}
	m, st := sr.ident(module, head)
	if st == nil {
		return
	}
	gid, err := sr.promote(m, st.gid, head, uint64(size))
	if err != nil {
		// The trace cannot live in the shared tier (bigger than the whole
		// tier); it simply is not shared.
		return
	}
	if st.gid == 0 {
		sr.published++
	}
	st.gid = gid
	if sr.srv.cluster != nil {
		// Queue the publication for its shard owner in the portable cluster
		// namespace (log-local module). Owned shards return false and need no
		// replication: the local shared tier is the shard.
		sr.srv.cluster.NotePublish(cluster.Key{Bench: sr.bench, Module: module, Head: head}, uint64(size))
	}
}

// tryAdopt probes the shared tier for this identity and attaches if a
// size-matched trace is resident. Savings are counted once per held ref.
// It reports whether the session now holds (or already held) a shared-tier
// ref for the identity — i.e. the shared tier has the trace.
func (sr *sessionRun) tryAdopt(local uint16, head uint64, size uint32) bool {
	m, st := sr.ident(local, head)
	if st == nil {
		return false
	}
	if st.adopted {
		return true
	}
	gid, ok := sr.adopt(m, head, uint64(size))
	if !ok {
		return false
	}
	st.gid = gid
	st.adopted = true
	sr.adoptions++
	sr.savedGen += costmodel.DefaultModel.TraceGen(int(size))
	return true
}

// tryRemoteAdopt resolves a local adoption miss against the cluster: the
// shard owner for the identity may hold a publication this node's tier never
// saw. A hit counts once per identity (like tryAdopt) and emits a
// KindPeerAdopt event tagged with the serving node onto both event feeds.
// The private replay is untouched either way — it regenerates exactly as
// offline ccsim would; the service just doesn't pay for the generation.
func (sr *sessionRun) tryRemoteAdopt(local uint16, head uint64, size uint32) bool {
	n := sr.srv.cluster
	if n == nil {
		return false
	}
	r, ok := n.RemoteAdopt(context.Background(), cluster.Key{Bench: sr.bench, Module: local, Head: head}, uint64(size))
	if !ok {
		return false
	}
	key := identKey{module: local, head: head}
	if sr.remote == nil {
		sr.remote = make(map[identKey]bool)
	}
	if !sr.remote[key] {
		sr.remote[key] = true
		sr.peerAdoptions++
		sr.savedGen += costmodel.DefaultModel.TraceGen(int(size))
		e := obs.Event{
			Kind:   obs.KindPeerAdopt,
			Trace:  r.TraceID,
			Size:   uint64(size),
			Module: local,
			Proc:   sr.id,
			Node:   r.Node,
		}
		sr.srv.counter.Observe(e)
		sr.srv.router.Observe(e)
	}
	return true
}

// sessionRun implements sim.Hooks: the replayer calls out at the fixed
// interplay points, so the shared-tier bookkeeping runs inside the batched
// kernel without a per-event wrapper around it.

// Registered handles a KindCreate/KindAdopt entering the replay: the shared
// tier may already hold this guest code, published by a peer — locally, or
// on the cluster node that owns the identity's shard.
func (sr *sessionRun) Registered(trace uint64, size uint32, module uint16, head uint64) {
	if sr.tryAdopt(module, head, size) {
		return
	}
	sr.tryRemoteAdopt(module, head, size)
}

// Regenerated handles a conflict miss: the private cache is regenerating
// this trace; a shared-tier copy, if one appeared since creation, saves that
// work too. When the probe fails on an identity the shared tier once held
// (published or adopted earlier), the regeneration is upgraded in the
// session's ledger to an adoption miss — the private ledger alone cannot see
// that the shared tier lost a publisher. ReclassifyLastMiss is a
// cell-to-cell move, so cause conservation is untouched.
func (sr *sessionRun) Regenerated(trace uint64, size uint32, module uint16, head uint64) {
	if sr.tryAdopt(module, head, size) {
		return
	}
	if sr.tryRemoteAdopt(module, head, size) {
		// The regeneration's cost was absorbed by the peer that served the
		// identity; the ledger upgrades the miss so attribution separates
		// cluster-served regenerations from true capacity losses.
		if sr.led != nil {
			sr.led.ReclassifyLastMiss(trace, obs.ReasonRemoteAdoption)
		}
		return
	}
	if sr.led == nil {
		return
	}
	if _, st := sr.ident(module, head); st != nil && st.gid != 0 {
		sr.led.ReclassifyLastMiss(trace, obs.ReasonAdoptionMiss)
	}
}

// Unmapped releases the session's shared-tier references under the module.
// A module the session holds nothing under needs no call into the tier:
// the unmap would find no reference of the session's to drop.
func (sr *sessionRun) Unmapped(module uint16) {
	if int(module) >= len(sr.mods) || !sr.mods[module].held {
		return
	}
	m := &sr.mods[module]
	sr.unmap(m)
	// The refs under this module are gone; a reloaded module may re-adopt,
	// so its identities forget their held state.
	for _, st := range m.idents {
		st.adopted = false
	}
}

// keepWarmOwner is the shared-tier owner ID the server itself holds on the
// traces it keeps warm (Config.KeepWarm). Session IDs start at 1, so it
// never collides with a session.
const keepWarmOwner = 0

// adopt attaches the session to the trace published for a code identity in
// module m, if one is resident and its size matches (SharedPersistent.Adopt,
// one call into the tier). It returns the adopted trace's ID.
func (sr *sessionRun) adopt(m *sessionModule, head, size uint64) (uint64, bool) {
	id, ok := sr.srv.sp.Adopt(sr.id, m.gmod, head, size)
	if ok {
		m.held = true
	}
	return id, ok
}

// promote publishes a trace of module m into the shared tier, owned by the
// session, in one call into the tier. id is the trace's ID from an earlier
// promote or adopt of the same code, so a re-promotion after an eviction
// keeps its identity, or 0 to allocate one (before the tier decides: a
// refused trace still spends it). With KeepWarm the server's own reference
// is taken in the same call, and the trace outlives the session. A non-nil
// error means the trace cannot live in the tier.
func (sr *sessionRun) promote(m *sessionModule, id, head, size uint64) (uint64, error) {
	if id == 0 {
		id = sr.srv.traceIDs.Add(1)
	}
	f := codecache.Fragment{ID: id, Size: size, Module: m.gmod, HeadAddr: head}
	if err := sr.srv.sp.Promote(sr.id, f, sr.srv.warmOwners...); err != nil {
		return id, err
	}
	m.held = true
	return id, nil
}

// unmap releases the session's references under module m: its workload
// unloaded the module. Owner-aware: traces another session or the keep-warm
// owner still holds stay resident; traces whose last owner left drain.
func (sr *sessionRun) unmap(m *sessionModule) {
	m.held = false
	sr.srv.sp.UnmapModule(sr.id, m.gmod)
}

// close is the session's drain: it releases every module the session still
// holds, owner-aware, in ascending global module order, so a session's
// teardown drains deterministically whatever its peers do. Every session's
// owner defers it, failed sessions included.
func (sr *sessionRun) close() {
	var held []*sessionModule
	for i := range sr.mods {
		if sr.mods[i].held {
			held = append(held, &sr.mods[i])
		}
	}
	slices.SortFunc(held, func(a, b *sessionModule) int { return cmp.Compare(a.gmod, b.gmod) })
	for _, m := range held {
		sr.unmap(m)
	}
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.Error{Error: fmt.Sprintf(format, args...)})
}

// handleSession serves POST /v1/sessions: admission, replay, result.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	cfg, events, err := api.ParseQuery(r.URL.Query())
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission is decided before the first body byte is read: a rejected
	// session costs the server nothing, and accepted sessions never share
	// their replay slot with an unbounded number of peers.
	if err := s.adm.acquire(r.Context()); err != nil {
		if errors.Is(err, errOverloaded) {
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "session limit reached (%d running, %d queued)",
				s.cfg.MaxSessions, s.cfg.QueueDepth)
		}
		// Context errors mean the client left while queued; nothing to say.
		return
	}
	defer s.adm.release()

	sr := newSessionRun(s)
	defer sr.close()

	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxSessionBytes)}

	var enc *ndjsonWriter
	if events {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc = newNDJSONWriter(s, w)
		sr.enc = enc
		// Shared-tier events caused by this session's publishes, adoptions,
		// and unmaps carry its ID; route them into the merged feed. The
		// traces close drains leave after the router detaches and after the
		// closing line, so the server's counter sees them and the stream
		// never does.
		s.router.attach(sr.id, enc)
		defer s.router.detach(sr.id)
	}

	out, err := s.serveSession(cfg, sr, body)
	if err != nil {
		s.failSession(w, enc, err)
		return
	}
	s.recordResult(out, body.n)

	if enc != nil {
		enc.write(api.StreamLine{Result: &out})
		enc.flush()
		return
	}
	if r.Header.Get("Accept") == api.StatsContentType {
		data, err := out.MarshalBinary()
		if err == nil {
			w.Header().Set("Content-Type", api.StatsContentType)
			_, _ = w.Write(data)
			return
		}
		// Fall through to JSON, the debug path, on any marshal surprise.
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// serveSession replays one opened session with the shared tier riding
// alongside (handleSession and ServeSession), then fills in the service-side
// fields and folds the session's attribution into the server-wide and tenant
// aggregates. Failures are counted here; the caller records the result,
// since only it knows how many body bytes the session consumed, and closes
// the session.
func (s *Server) serveSession(cfg SessionConfig, sr *sessionRun, body io.Reader) (api.SessionResult, error) {
	out, snap, err := replayLog(cfg, body, sr)
	if err != nil {
		s.recordFailure()
		return api.SessionResult{}, err
	}
	out.Session = sr.id
	out.Shared = api.SharedSavings{
		Adoptions:            sr.adoptions,
		Published:            sr.published,
		PeerAdoptions:        sr.peerAdoptions,
		SavedGenInstructions: sr.savedGen,
	}
	if snap != nil {
		s.attrib.Add(snap)
		if cfg.Tenant != "" {
			s.tenantAggregate(cfg.Tenant).Add(snap)
		}
	}
	return out, nil
}

// accPool recycles cost accumulators across sessions; startReplay draws one
// and replayLog returns it once the result has been copied out.
var accPool = sync.Pool{New: func() any { return new(costmodel.Accum) }}

// replayLog is the one path from a session's configuration and log bytes to
// its result, shared by handleSession, ServeSession, and OfflineReplay, so a
// served session and its offline verification agree by construction. It
// decodes the log off body, sizes the cache, builds the manager from
// cfg.GraphSpec, and replays the decoded blocks through the batched kernel.
// With an absolute capacity, blocks replay as they decode off the wire; a
// fractional capacity needs the log's unbounded peak first, so the blocks
// are decoded and retained (pooled, struct-of-arrays) while the Summarizer
// scans them — offline ccsim's procedure without its []Event buffer.
//
// sr is the served session riding alongside the replay: its observers and
// shared-tier hooks are wired in, and in events mode it also receives the
// progress stream (without a progress observer nothing else consumes one).
// A nil sr replays offline against the private manager alone. The result's
// Session and Shared fields are left zero; snap is the attribution ledger's
// snapshot, nil unless cfg.Attrib.
func replayLog(cfg SessionConfig, body io.Reader, sr *sessionRun) (api.SessionResult, *attrib.Snapshot, error) {
	// A *bytes.Reader (in-process callers) is a byte source tracelog would
	// read directly, event by event, having no Peek window; the bufio wrap
	// gives every source the zero-copy block decode HTTP bodies get.
	lr, err := tracelog.NewReader(bufio.NewReaderSize(body, tracelog.DefaultBufSize))
	if err != nil {
		return api.SessionResult{}, nil, err
	}
	capacity := cfg.CapacityBytes
	var blocks []*tracelog.EventBlock
	defer func() {
		for _, b := range blocks {
			tracelog.PutBlock(b)
		}
	}()
	var total uint64
	if capacity == 0 {
		z := tracelog.NewSummarizer(lr.Header())
		for {
			b := tracelog.GetBlock()
			derr := lr.NextBlock(b)
			z.AddBlock(b)
			total += uint64(b.N)
			blocks = append(blocks, b)
			if errors.Is(derr, io.EOF) {
				break
			}
			if derr != nil {
				return api.SessionResult{}, nil, derr
			}
		}
		capFrac := cfg.CapFrac
		if capFrac == 0 {
			capFrac = 0.5
		}
		capacity = uint64(float64(z.Summary().MaxLiveBytes) * capFrac)
		if capacity == 0 {
			return api.SessionResult{}, nil, errors.New("log has no live trace bytes to size a cache from")
		}
	}

	rep, err := startReplay(cfg, lr.Header().Benchmark, capacity, sr)
	if err != nil {
		return api.SessionResult{}, nil, err
	}
	defer sr.fold()
	if cfg.CapacityBytes == 0 {
		rep.SetTotal(total)
		for _, b := range blocks {
			if err := rep.StepBlock(b); err != nil {
				return api.SessionResult{}, nil, err
			}
			sr.fold()
		}
	} else {
		b := tracelog.GetBlock()
		defer tracelog.PutBlock(b)
		for {
			derr := lr.NextBlock(b)
			if b.N > 0 {
				if err := rep.StepBlock(b); err != nil {
					return api.SessionResult{}, nil, err
				}
				sr.fold()
			}
			if errors.Is(derr, io.EOF) {
				break
			}
			if derr != nil {
				return api.SessionResult{}, nil, derr
			}
		}
	}

	res := rep.Finish()
	out := api.FromSim(res)
	out.CapacityBytes = capacity
	out.Events = rep.Events()
	var snap *attrib.Snapshot
	if led := rep.Ledger(); led != nil {
		snap = led.Snapshot()
		out.Causes = causeCounts(snap)
	}
	// out is a value copy: the accumulator and the replayer's tables can go
	// back to their pools.
	accPool.Put(res.Overhead)
	rep.Recycle()
	return out, snap, nil
}

// startReplay builds the manager from cfg over capacity bytes and the
// replayer that drives it, wiring a served session (sr non-nil) in. Costs
// are charged by costmodel.DefaultModel.
func startReplay(cfg SessionConfig, bench string, capacity uint64, sr *sessionRun) (*sim.Replayer, error) {
	// Cause events reach the NDJSON stream only in events mode; a plain
	// attrib session aggregates silently.
	spec, err := cfg.GraphSpec(capacity, sr != nil && sr.enc != nil)
	if err != nil {
		return nil, err
	}
	acc := accPool.Get().(*costmodel.Accum)
	acc.Reset(costmodel.DefaultModel)
	// A served session's manager has one observer, the session's sink; an
	// offline replay only charges costs.
	o := sim.CostObserver(acc)
	var progress obs.Observer
	if sr != nil {
		sr.acc = acc
		o = sr
		if sr.enc != nil {
			progress = sr.enc
		}
	}
	mgr, err := core.NewGraph(spec, o)
	if err != nil {
		accPool.Put(acc)
		return nil, err
	}
	if sr != nil {
		mgr.SetProcID(sr.id)
	}
	if cfg.Pressure > 0 {
		// The pressure the session was admitted under is part of its
		// configuration: an offline verification replay passes the same
		// value, so the adaptive controller decides identically.
		mgr.SetLoadPressure(cfg.Pressure)
	}
	rep := sim.NewReplayer(bench, mgr, acc, progress)
	if sr != nil {
		sr.bench, sr.rep, sr.led = bench, rep, rep.Ledger()
		rep.SetHooks(sr)
	}
	return rep, nil
}

// failSession reports a terminal session error in whichever framing the
// response is using.
func (s *Server) failSession(w http.ResponseWriter, enc *ndjsonWriter, err error) {
	if enc != nil {
		enc.write(api.StreamLine{Error: err.Error()})
		enc.flush()
		return
	}
	var tooBig *http.MaxBytesError
	status := http.StatusBadRequest
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	jsonError(w, status, "%v", err)
}
