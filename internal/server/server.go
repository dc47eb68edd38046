// Package server implements gencached, the resident cache-simulation
// service: one long-running process multiplexing many concurrent client
// sessions over one shared persistent generation.
//
// Each session POSTs a workload event log (tracelog wire format, either
// framing) and gets back the same result an offline ccsim run of that log
// would print — the replay itself runs against a private manager, so
// per-session numbers are bit-identical to the offline simulator no matter
// what the other sessions are doing. The service layer rides alongside the
// replay: traces a session's workload promotes into its persistent
// generation are published to the shared tier, later sessions adopt them
// instead of paying their generation cost, and teardown releases the
// session's references owner-aware. At shutdown the shared tier is written
// to one self-describing persist image, and the next start restores it warm.
package server

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attrib"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/profiling"
	"repro/internal/server/api"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Config parameterizes a Server.
type Config struct {
	// SharedCapacity is the shared persistent generation's size in bytes.
	SharedCapacity uint64
	// MaxSessions bounds concurrently replaying sessions; more wait in the
	// queue. Default 16.
	MaxSessions int
	// QueueDepth bounds sessions waiting for a replay slot; past it the
	// server answers 429. Default 64.
	QueueDepth int
	// MaxSessionBytes caps one session's request body. Default 256 MiB.
	MaxSessionBytes int64
	// SnapshotPath, when set, enables persistence: the shared tier is loaded
	// from it at startup (warm start) and written back by SaveSnapshot.
	SnapshotPath string
	// KeepWarm keeps the server's own reference on every published trace so
	// it outlives its publishing sessions. On is the service default; off
	// makes a trace drain with its last owning session.
	KeepWarm bool
	// Logf receives operational log lines; nil selects log.Printf.
	Logf func(format string, args ...any)
	// Clock is the server's time plane. The live daemon leaves it nil (the
	// wall clock); the production-day engine injects a simclock.Virtual so
	// uptime and every timestamped output are deterministic.
	Clock simclock.Clock
	// Autoscale, when set, attaches the admission autoscaler. It only wires
	// the scaler up — nothing ticks it; the owner drives Tick from its own
	// time plane (cmd/gencached serve from a real ticker, the day engine
	// from the virtual clock).
	Autoscale *AutoscaleConfig
	// Cluster, when set, shards the shared tier across nodes: this server
	// becomes one member of the distributed shared tier, serving the peer
	// exchange endpoints and pulling cross-node adoptions on local misses.
	// Like Autoscale, nothing inside the server drives replication — the
	// owner calls FlushReplication on its own time plane.
	Cluster *ClusterConfig
}

func (c *Config) fillDefaults() {
	if c.SharedCapacity == 0 {
		c.SharedCapacity = 8 << 20
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxSessionBytes == 0 {
		c.MaxSessionBytes = 256 << 20
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server is the gencached service core, independent of any listener: tests
// drive its Handler through httptest, cmd/gencached binds it to a real port.
type Server struct {
	cfg     Config
	sp      *core.SharedPersistent
	counter *stats.EventCounter
	router  *obsRouter
	adm     *admission
	scaler  *autoscaler // nil unless cfg.Autoscale was set
	mods    *moduleSpace
	clock   simclock.Clock
	start   time.Time // on the injected clock's plane

	// cluster is this node's membership in the distributed shared tier; nil
	// on unclustered servers. nodeTag, set only when the cluster has peers,
	// stamps outgoing NDJSON events with the emitting node — single-node
	// deployments (clustered or not) keep their streams byte-identical.
	cluster    *cluster.Node
	nodeTag    string
	peerClient *http.Client

	draining atomic.Bool

	// sessionIDs and traceIDs allocate the IDs of sessions (each session's
	// owner ID in the shared tier) and of shared-tier traces. Both hand out 1
	// first: owner 0 is keepWarmOwner, and a zero trace ID means "not yet
	// published". Publications and imports draw trace IDs from the one
	// allocator, so IDs stay unique across every path into the tier.
	sessionIDs atomic.Int64
	traceIDs   atomic.Uint64
	// warmOwners names the owners every published or imported trace gets
	// beside its publisher: keepWarmOwner with Config.KeepWarm, none
	// without.
	warmOwners []int

	// attrib aggregates every attribution-enabled session's ledger snapshot
	// into the server-wide /v1/attrib report and miss-cause metrics.
	attrib *attrib.Aggregate

	mu  sync.Mutex
	agg aggregate
	// tenants splits the attribution plane per session label (?session=):
	// each labelled attrib session folds into its tenant's aggregate as well
	// as the server-wide one.
	tenants map[string]*attrib.Aggregate
	warm    WarmStats
	// livePol maps a tier level name to the policy spec most recently made
	// live there by any session's online selector (KindPolicySwitch events).
	livePol map[string]string
}

// aggregate sums per-session results into the server-wide /metrics view.
type aggregate struct {
	sessionsServed uint64
	sessionsFailed uint64
	bytesIngested  uint64
	eventsIngested uint64
	accesses       uint64
	hits           uint64
	misses         uint64
	coldCreates    uint64
	regenerations  uint64
	forcedDeletes  uint64
	adoptions      uint64
	published      uint64
	peerAdoptions  uint64
	savedGenInstr  float64
	overheadInstr  float64
}

// New builds a server over a fresh system, warm-starting the shared tier
// from cfg.SnapshotPath when a compatible snapshot exists. A snapshot in an
// unsupported format generation (persist.ErrVersion) is skipped with a log
// line — stale state is not an error for a cache — while a corrupt one fails
// startup: silently dropping state that should have loaded is how caches rot.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	counter := stats.NewEventCounter()
	router := newObsRouter()
	sp := core.NewSharedPersistent(cfg.SharedCapacity, obs.Combine(counter, router))
	clock := simclock.Default(cfg.Clock)
	s := &Server{
		cfg:     cfg,
		sp:      sp,
		counter: counter,
		router:  router,
		adm:     newAdmission(cfg.MaxSessions, cfg.QueueDepth),
		attrib:  attrib.NewAggregate(),
		mods:    newModuleSpace(),
		clock:   clock,
		start:   clock.Now(),
		livePol: make(map[string]string),
		tenants: make(map[string]*attrib.Aggregate),
	}
	if cfg.KeepWarm {
		s.warmOwners = []int{keepWarmOwner}
	}
	if cfg.Cluster != nil {
		s.peerClient = cfg.Cluster.HTTPClient
		if err := s.buildCluster(cfg.Cluster); err != nil {
			return nil, err
		}
	}
	if cfg.Autoscale != nil {
		// Resize announcements reach the server-wide counter and, through
		// the router, any observer attached under proc 0 (the day engine's
		// timeline tap) — autoscaler events carry no causing session.
		s.scaler = newAutoscaler(s.adm, *cfg.Autoscale, obs.Combine(counter, router))
	}
	if cfg.SnapshotPath != "" {
		if err := s.warmStart(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WarmStats reports what a warm start accomplished.
type WarmStats struct {
	Restored uint64 // records placed into the shared tier
	Rejected uint64 // records the tier could not take: unnamed in the table, or no room
}

// warmStart restores the shared tier from the snapshot, if one exists in
// this build's format.
func (s *Server) warmStart() error {
	f, err := os.Open(s.cfg.SnapshotPath)
	if errors.Is(err, os.ErrNotExist) {
		s.cfg.Logf("gencached: no snapshot at %s, cold start", s.cfg.SnapshotPath)
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	img, err := persist.Load(f)
	if errors.Is(err, persist.ErrVersion) {
		s.cfg.Logf("gencached: skipping snapshot %s: %v", s.cfg.SnapshotPath, err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: corrupt snapshot %s: %w", s.cfg.SnapshotPath, err)
	}
	s.warm = s.importImage(img, nil)
	s.cfg.Logf("gencached: warm start from %s: %d traces restored, %d rejected",
		s.cfg.SnapshotPath, s.warm.Restored, s.warm.Rejected)
	return nil
}

// SaveSnapshot writes the shared tier to the configured snapshot path as one
// self-describing persist image. The image goes to <path>.tmp, is synced,
// renamed over the path, and the directory is synced, so a crash at any
// point leaves either the previous snapshot or the new one. No-op without a
// SnapshotPath.
func (s *Server) SaveSnapshot() error {
	path := s.cfg.SnapshotPath
	if path == "" {
		return nil
	}
	img := s.image(nil)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = persist.Save(f, img)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the save has failed either way
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return err
	}
	s.cfg.Logf("gencached: snapshot %s: %d traces", path, len(img.Records))
	return nil
}

// StartDraining flips the server into shutdown mode: /healthz reports
// draining and new sessions are refused with 503 while in-flight ones run to
// completion. The caller then waits for the HTTP server to drain and calls
// SaveSnapshot.
func (s *Server) StartDraining() { s.draining.Store(true) }

// WarmStats reports what the startup warm start restored.
func (s *Server) WarmStats() WarmStats { return s.warm }

// Shared exposes the shared persistent tier (tests and diagnostics).
func (s *Server) Shared() *core.SharedPersistent { return s.sp }

// Handler returns the service's HTTP mux: the session endpoint, health,
// metrics, and the standard pprof endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.SessionsPath, s.handleSession)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET "+api.AttribPath, s.handleAttrib)
	if s.cluster != nil {
		mux.HandleFunc("POST "+cluster.PeerLookupPath, s.handlePeerLookup)
		mux.HandleFunc("POST "+cluster.PeerReplicatePath, s.handlePeerReplicate)
		mux.HandleFunc("GET "+cluster.PeerSnapshotPath, s.handlePeerSnapshot)
	}
	profiling.AttachHTTP(mux)
	return mux
}

// health assembles the current /healthz view. Uptime runs on the injected
// clock, so a virtual-clock server reports virtual uptime — deterministic
// across runs.
func (s *Server) health() api.Health {
	running, queued, rejected := s.adm.load()
	slots, queue, resizes := s.adm.limits()
	s.mu.Lock()
	served := s.agg.sessionsServed
	s.mu.Unlock()
	h := api.Health{
		Status:          "ok",
		ActiveSessions:  running,
		QueuedSessions:  queued,
		AdmissionSlots:  slots,
		AdmissionQueue:  queue,
		AdmissionResize: resizes,
		SessionsServed:  served,
		SessionsDenied:  rejected,
		SharedUsedBytes: s.sp.Used(),
		WarmRestored:    s.warm.Restored,
		UptimeSeconds:   s.clock.Since(s.start).Seconds(),
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	if s.cluster != nil {
		h.ClusterNode = s.cluster.ID()
		h.ClusterPeers = len(s.cluster.Peers())
		h.ShardsOwned = len(s.cluster.OwnedShards())
	}
	return h
}

// Clock returns the server's time plane.
func (s *Server) Clock() simclock.Clock { return s.clock }

// AdmissionLoad reports current admission occupancy: sessions replaying,
// sessions waiting, and the running 429 total.
func (s *Server) AdmissionLoad() (running, queued int, rejected uint64) {
	return s.adm.load()
}

// AdmissionLimits reports the current admission capacities and how many
// times they have been resized.
func (s *Server) AdmissionLimits() (slots, queue int, resizes uint64) {
	return s.adm.limits()
}

// AutoscaleTick runs one autoscaler decision and reports whether the
// admission limits changed. The server never ticks itself: the owner calls
// this from its own time plane (a real ticker in the daemon, the virtual
// clock in the day engine), which is what keeps a simulated day
// deterministic. No-op false without Config.Autoscale.
func (s *Server) AutoscaleTick() bool {
	if s.scaler == nil {
		return false
	}
	return s.scaler.Tick()
}

// DeployUnmap models a production deploy or maintenance event for one
// benchmark: every global module the server has ever mapped for it is
// unmapped from the keep-warm owner, dropping the server's own references so
// the bench's published traces drain from the shared tier (unless a live
// session still holds them). Sessions in flight are untouched — their refs
// are their own. Returns how many modules were unmapped. Without KeepWarm
// the server holds no refs and this is a no-op.
func (s *Server) DeployUnmap(bench string) int {
	if !s.cfg.KeepWarm {
		return 0
	}
	mods := s.mods.benchModules(bench)
	for _, g := range mods {
		s.sp.UnmapModule(keepWarmOwner, g)
	}
	return len(mods)
}

// trackPolicy records a live-policy switch (a KindPolicySwitch event) for
// the /metrics tier-policy gauge. Sessions run concurrently, so the map holds
// the most recent switch seen per level across all of them.
func (s *Server) trackPolicy(e *obs.Event) {
	s.mu.Lock()
	s.livePol[e.From.String()] = e.Policy
	s.mu.Unlock()
}

// recordResult folds one finished session into the aggregate counters.
func (s *Server) recordResult(r api.SessionResult, bytes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := &s.agg
	a.sessionsServed++
	a.bytesIngested += bytes
	a.eventsIngested += r.Events
	a.accesses += r.Accesses
	a.hits += r.Hits
	a.misses += r.Misses
	a.coldCreates += r.ColdCreates
	a.regenerations += r.Regenerations
	a.forcedDeletes += r.ForcedDeletes
	a.adoptions += r.Shared.Adoptions
	a.published += r.Shared.Published
	a.peerAdoptions += r.Shared.PeerAdoptions
	a.savedGenInstr += r.Shared.SavedGenInstructions
	a.overheadInstr += r.Overhead.TotalInstructions
}

// tenantAggregate returns (allocating on first sight) the attribution
// aggregate for one session label.
func (s *Server) tenantAggregate(label string) *attrib.Aggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.tenants[label]
	if a == nil {
		a = attrib.NewAggregate()
		s.tenants[label] = a
	}
	return a
}

// tenantSnapshot snapshots one tenant's aggregate; an unknown label yields
// the empty snapshot.
func (s *Server) tenantSnapshot(label string) *attrib.Snapshot {
	s.mu.Lock()
	a := s.tenants[label]
	s.mu.Unlock()
	if a == nil {
		return attrib.NewAggregate().Snapshot()
	}
	return a.Snapshot()
}

// tenantNames lists every session label seen on attribution-enabled
// sessions, sorted — the discoverable values of /v1/attrib?session=.
func (s *Server) tenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for t := range s.tenants {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (s *Server) recordFailure() {
	s.mu.Lock()
	s.agg.sessionsFailed++
	s.mu.Unlock()
}

// obsRouter fans shared-tier events out to the session that caused them:
// every SharedPersistent event carries the causing owner in Proc, which for
// service sessions is the session ID. Sessions streaming their merged event
// feed subscribe while they run; everyone else's events fall through
// silently. Reads vastly outnumber writes, so a RWMutex-guarded map is
// plenty — the hot path is one read-lock and a map probe.
type obsRouter struct {
	mu   sync.RWMutex
	subs map[int]obs.Observer
}

func newObsRouter() *obsRouter {
	return &obsRouter{subs: make(map[int]obs.Observer)}
}

// Observe implements obs.Observer.
func (r *obsRouter) Observe(e obs.Event) {
	r.mu.RLock()
	o := r.subs[e.Proc]
	r.mu.RUnlock()
	if o != nil {
		o.Observe(e)
	}
}

func (r *obsRouter) attach(proc int, o obs.Observer) {
	r.mu.Lock()
	r.subs[proc] = o
	r.mu.Unlock()
}

func (r *obsRouter) detach(proc int) {
	r.mu.Lock()
	delete(r.subs, proc)
	r.mu.Unlock()
}
