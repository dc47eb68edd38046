package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/attrib"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/obs"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/tracelog"
)

// maxTenantLen bounds the ?session= label; it is an opaque key into the
// per-tenant attribution map, not a payload.
const maxTenantLen = 64

// parseParams reads a session's configuration off the query string, and
// whether the response streams NDJSON events (events=1).
func parseParams(r *http.Request) (SessionConfig, bool, error) {
	var c SessionConfig
	var events bool
	q := r.URL.Query()
	if v := q.Get(api.ParamCapacity); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return c, false, fmt.Errorf("bad %s %q", api.ParamCapacity, v)
		}
		c.CapacityBytes = n
	}
	if v := q.Get(api.ParamCapFrac); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f > 16 {
			return c, false, fmt.Errorf("bad %s %q", api.ParamCapFrac, v)
		}
		c.CapFrac = f
	}
	c.Layout = q.Get(api.ParamLayout)
	if v := q.Get(api.ParamThreshold); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return c, false, fmt.Errorf("bad %s %q", api.ParamThreshold, v)
		}
		c.Threshold = n
	}
	c.Tiers = q.Get(api.ParamTiers)
	c.Policy = q.Get(api.ParamPolicy)
	for name, dst := range map[string]*uint64{api.ParamSelEpoch: &c.SelEpoch, api.ParamAdaptEpoch: &c.AdaptEpoch} {
		if v := q.Get(name); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return c, false, fmt.Errorf("bad %s %q", name, v)
			}
			*dst = n
		}
	}
	if v := q.Get(api.ParamPressure); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return c, false, fmt.Errorf("bad %s %q", api.ParamPressure, v)
		}
		c.Pressure = f
	}
	if v := q.Get(api.ParamSession); v != "" {
		if len(v) > maxTenantLen {
			return c, false, fmt.Errorf("bad %s: label longer than %d bytes", api.ParamSession, maxTenantLen)
		}
		c.Tenant = v
	}
	for name, dst := range map[string]*bool{api.ParamUnified: &c.Unified, api.ParamEvents: &events, api.ParamAdaptive: &c.Adaptive, api.ParamAttrib: &c.Attrib} {
		if v := q.Get(name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return c, false, fmt.Errorf("bad %s %q", name, v)
			}
			*dst = b
		}
	}
	// Build the session's spec before admission, so a malformed tiers,
	// layout or policy is a 400 that takes no replay slot and reads no body.
	// The second build checks layout and policy where the session's own
	// shape ignores them (unified=1, or tiers naming every tier's policy).
	for _, probe := range []SessionConfig{c, {Layout: c.Layout, Policy: c.Policy}} {
		if _, err := probe.GraphSpec(1, false); err != nil {
			return c, false, err
		}
	}
	return c, events, nil
}

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
type ndjsonWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	flusher http.Flusher
	err     error
	lines   uint64
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	nw := &ndjsonWriter{bw: bufio.NewWriterSize(w, 32<<10)}
	nw.enc = json.NewEncoder(nw.bw)
	nw.flusher, _ = w.(http.Flusher)
	return nw
}

func (nw *ndjsonWriter) write(line api.StreamLine) {
	if nw.err != nil {
		return
	}
	nw.err = nw.enc.Encode(line)
	nw.lines++
}

func (nw *ndjsonWriter) flush() {
	if nw.err == nil {
		nw.err = nw.bw.Flush()
	}
	if nw.err == nil && nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// identKey names one piece of guest code in the server-global namespace.
type identKey struct {
	module uint16 // global module ID
	head   uint64
}

// identState tracks the session's relationship with one code identity.
type identState struct {
	gid     uint64 // shared-tier trace ID, once known (adopted or published)
	adopted bool   // session currently holds an adoption ref
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
// replay, never inside it.
type sessionRun struct {
	srv  *Server
	sess *dbt.Session
	rep  *sim.Replayer
	led  *attrib.Ledger // nil unless the session asked for attribution

	bench  string
	gmods  map[uint16]uint16 // log-local module → global module
	gmodOK map[uint16]bool
	idents map[identKey]*identState

	// remote tracks identities (keyed by log-local module — the portable
	// cluster namespace) whose generation cost a peer node absorbed, so the
	// peer-adoption count and savings are once per identity.
	remote map[identKey]bool

	adoptions     uint64 // distinct identities adopted
	published     uint64 // distinct identities published
	peerAdoptions uint64 // distinct identities served by a peer node
	savedGen      float64

	enc *ndjsonWriter // nil unless events mode
}

func newSessionRun(srv *Server, sess *dbt.Session, enc *ndjsonWriter) *sessionRun {
	return &sessionRun{
		srv:    srv,
		sess:   sess,
		gmods:  make(map[uint16]uint16),
		gmodOK: make(map[uint16]bool),
		idents: make(map[identKey]*identState),
		enc:    enc,
	}
}

// globalModule resolves a log-local module into the server-global namespace,
// memoizing per session. Exhaustion of the 16-bit space disables sharing for
// the module; the replay is unaffected.
func (sr *sessionRun) globalModule(local uint16) (uint16, bool) {
	if ok, seen := sr.gmodOK[local]; seen {
		return sr.gmods[local], ok
	}
	g, ok := sr.srv.mods.global(sr.bench, local)
	sr.gmodOK[local] = ok
	sr.gmods[local] = g
	return g, ok
}

// observe is the private manager's observer hook. Promotions that land a
// trace in the session's persistent generation are the paper's signal that
// it earned long-term residency, so they publish it to the shared tier; the
// same event stream also feeds the session's NDJSON feed and the server-wide
// event counter (wired separately in the observer chain).
func (sr *sessionRun) observe(e obs.Event) {
	if sr.enc != nil {
		w := api.FromObs(e)
		sr.srv.tagNode(&w)
		sr.enc.write(api.StreamLine{Event: &w})
		if e.Kind == obs.KindProgress {
			sr.enc.flush()
		}
	}
	if e.Kind != obs.KindPromote || e.To != obs.LevelPersistent {
		return
	}
	if sr.rep == nil {
		return
	}
	size, module, head, ok := sr.rep.TraceInfo(e.Trace)
	if !ok {
		return
	}
	gmod, ok := sr.globalModule(module)
	if !ok {
		return
	}
	key := identKey{module: gmod, head: head}
	st := sr.idents[key]
	if st == nil {
		st = &identState{}
		sr.idents[key] = st
	}
	gid, err := sr.sess.Publish(st.gid, uint64(size), gmod, head)
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
	gmod, ok := sr.globalModule(local)
	if !ok {
		return false
	}
	key := identKey{module: gmod, head: head}
	st := sr.idents[key]
	if st != nil && st.adopted {
		return true
	}
	gid, ok := sr.sess.Adopt(gmod, head, uint64(size))
	if !ok {
		return false
	}
	if st == nil {
		st = &identState{}
		sr.idents[key] = st
	}
	st.gid = gid
	st.adopted = true
	sr.adoptions++
	sr.savedGen += sr.srv.model.TraceGen(int(size))
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
		sr.savedGen += sr.srv.model.TraceGen(int(size))
		e := obs.Event{
			Kind:   obs.KindPeerAdopt,
			Trace:  r.TraceID,
			Size:   uint64(size),
			Module: local,
			Proc:   sr.sess.ID(),
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
	gmod, ok := sr.globalModule(module)
	if !ok {
		return
	}
	if st := sr.idents[identKey{module: gmod, head: head}]; st != nil && st.gid != 0 {
		sr.led.ReclassifyLastMiss(trace, obs.ReasonAdoptionMiss)
	}
}

// Unmapped releases the session's shared-tier references under the module.
func (sr *sessionRun) Unmapped(module uint16) {
	if ok, seen := sr.gmodOK[module]; seen && ok {
		gmod := sr.gmods[module]
		sr.sess.UnmapModule(gmod)
		// The refs under this module are gone; a reloaded module may
		// re-adopt, so the identities forget their held state.
		for key, st := range sr.idents {
			if key.module == gmod {
				st.adopted = false
			}
		}
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
	cfg, events, err := parseParams(r)
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

	sess, err := s.sys.OpenSession()
	if err != nil {
		s.recordFailure()
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer sess.Close()

	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxSessionBytes)}

	var enc *ndjsonWriter
	if events {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc = newNDJSONWriter(w)
		// Shared-tier events caused by this session's publishes, adoptions,
		// and unmaps carry its ID; route them into the merged feed.
		s.router.attach(sess.ID(), obs.Func(func(e obs.Event) {
			we := api.FromObs(e)
			s.tagNode(&we)
			enc.write(api.StreamLine{Event: &we})
		}))
		defer s.router.detach(sess.ID())
	}

	out, err := s.serveSession(cfg, sess, body, enc)
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
// since only it knows how many body bytes the session consumed.
func (s *Server) serveSession(cfg SessionConfig, sess *dbt.Session, body io.Reader, enc *ndjsonWriter) (api.SessionResult, error) {
	sr := newSessionRun(s, sess, enc)
	out, snap, err := replayLog(cfg, s.model, body, sr)
	if err != nil {
		s.recordFailure()
		return api.SessionResult{}, err
	}
	out.Session = sess.ID()
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
func replayLog(cfg SessionConfig, model costmodel.Model, body io.Reader, sr *sessionRun) (api.SessionResult, *attrib.Snapshot, error) {
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

	rep, err := startReplay(cfg, model, lr.Header().Benchmark, capacity, sr)
	if err != nil {
		return api.SessionResult{}, nil, err
	}
	if cfg.CapacityBytes == 0 {
		rep.SetTotal(total)
		for _, b := range blocks {
			if err := rep.StepBlock(b); err != nil {
				return api.SessionResult{}, nil, err
			}
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
// replayer that drives it, wiring a served session (sr non-nil) in.
func startReplay(cfg SessionConfig, model costmodel.Model, bench string, capacity uint64, sr *sessionRun) (*sim.Replayer, error) {
	// Cause events reach the NDJSON stream only in events mode; a plain
	// attrib session aggregates silently.
	spec, err := cfg.GraphSpec(capacity, sr != nil && sr.enc != nil)
	if err != nil {
		return nil, err
	}
	acc := accPool.Get().(*costmodel.Accum)
	acc.Reset(model)
	var extra, progress obs.Observer
	if sr != nil {
		extra = obs.Combine(sr.srv.counter, obs.Func(sr.srv.trackPolicy), obs.Func(sr.observe))
		if sr.enc != nil {
			progress = obs.Func(sr.observe)
		}
	}
	mgr, err := core.NewGraph(spec, obs.Combine(sim.CostObserver(acc), extra))
	if err != nil {
		accPool.Put(acc)
		return nil, err
	}
	if sr != nil {
		mgr.SetProcID(sr.sess.ID())
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
