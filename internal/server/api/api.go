// Package api defines the wire contract of the gencached service: the
// query parameters a client configures a session with, the JSON shapes the
// server answers with, and the conversion from the simulator's native result.
// Both halves of the system — internal/server on the serving side,
// internal/server/client and the gencached loadtest on the consuming side —
// build against this package, so a replay verified offline compares
// field-for-field against the served result.
package api

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SessionsPath is the ingest endpoint: POST a tracelog stream (CCLOG1 or
// CCLOG2 framing) as the request body, receive the session's result.
const SessionsPath = "/v1/sessions"

// Query parameters of POST /v1/sessions. A session chooses either an
// absolute capacity (the log is replayed as it streams in) or a capacity
// fraction of the log's unbounded peak (the log is buffered first, exactly
// like offline ccsim).
const (
	// ParamCapacity is the simulated cache capacity in bytes. Setting it
	// selects the streaming path: events replay as they arrive off the wire.
	ParamCapacity = "capacity"
	// ParamCapFrac is the capacity as a fraction of the log's unbounded peak
	// (MaxLiveBytes), ccsim's -capfrac. Used only when ParamCapacity is
	// absent; defaults to 0.5, the paper's operating point.
	ParamCapFrac = "capfrac"
	// ParamLayout is the nursery-probation-persistent percentage split,
	// ccsim's -layout. Default "45-10-45".
	ParamLayout = "layout"
	// ParamThreshold is the probation promotion threshold, ccsim's
	// -threshold. Default 1.
	ParamThreshold = "threshold"
	// ParamTiers replays an arbitrary tier graph (core.ParseTierSpec syntax)
	// instead of the stock generational chain.
	ParamTiers = "tiers"
	// ParamPolicy applies a local-policy spec ("lru", "trrip:cold=4", "auto"
	// for online selection) to every tier of the session's manager that does
	// not already name one, ccsim's -policy.
	ParamPolicy = "policy"
	// ParamSelEpoch overrides the accesses between online policy-selector
	// decisions (meaningful with "auto" policies), ccsim's -selepoch.
	ParamSelEpoch = "selepoch"
	// ParamUnified replays the single pseudo-circular baseline.
	ParamUnified = "unified"
	// ParamEvents switches the response to an NDJSON stream: the session's
	// merged observer events as they happen, then one final result line.
	ParamEvents = "events"
	// ParamAdaptive attaches the adaptive split controller to the session's
	// manager (ccsim's -adaptive): epoch-boundary capacity shifts between its
	// tiers, driven by the session's own miss attribution.
	ParamAdaptive = "adaptive"
	// ParamAdaptEpoch overrides the accesses between adaptive-controller
	// decisions (meaningful with adaptive=1), ccsim's -epoch.
	ParamAdaptEpoch = "aepoch"
	// ParamPressure is the load pressure in [0, 1] the session's adaptive
	// controller starts under — the arrival intensity the admission layer
	// observed when it let the session in. It is an explicit session
	// parameter (not server-side ambient state) precisely so an offline
	// verification replay can pass the same value and stay bit-identical.
	// Clients should format it with strconv.FormatFloat(v, 'g', -1, 64) so
	// the value round-trips exactly.
	ParamPressure = "pressure"
	// ParamAttrib attaches the trace-lifecycle attribution ledger to the
	// session's manager: the result carries per-cause miss counts (Causes),
	// the session folds into the server-wide /v1/attrib aggregate, and — with
	// events=1 — every classified miss streams a "regenerate" NDJSON event
	// tagged with its cause.
	ParamAttrib = "attrib"
	// ParamSession is an opaque tenant label (≤64 bytes). Attribution-enabled
	// sessions carrying it fold into a per-tenant aggregate as well as the
	// server-wide one, so GET /v1/attrib?session=<label> answers "why did
	// *this* tenant's traces regenerate". It never influences the replay.
	ParamSession = "session"
)

// AttribPath is the server-wide attribution endpoint: GET the aggregated
// miss-cause report (per module × tier × epoch × cause) over every attrib=1
// session served since startup.
const AttribPath = "/v1/attrib"

// Overhead is the Table 2 instruction-cost accounting of one session.
type Overhead struct {
	TotalInstructions float64 `json:"totalInstructions"`
	TraceGens         uint64  `json:"traceGens"`
	Evictions         uint64  `json:"evictions"`
	Promotions        uint64  `json:"promotions"`
}

// SharedSavings reports what the session gained from (and contributed to)
// the server's shared persistent generation. It is service-side bookkeeping
// layered over the private replay: adoptions never alter the session's
// replay counters, which stay bit-identical to an offline run of the same
// log.
type SharedSavings struct {
	// Adoptions counts traces the session attached to instead of paying
	// their generation cost — they were already resident in the shared tier,
	// published by an earlier session or restored from a snapshot.
	Adoptions uint64 `json:"adoptions"`
	// Published counts traces this session promoted into the shared tier.
	Published uint64 `json:"published"`
	// PeerAdoptions counts traces served by another cluster node's shard of
	// the distributed shared tier — the local tier missed, the owning peer
	// had the publication. Zero outside clustered deployments.
	PeerAdoptions uint64 `json:"peerAdoptions,omitempty"`
	// SavedGenInstructions is the Table 2 trace-generation cost the
	// adoptions (local and peer) avoided.
	SavedGenInstructions float64 `json:"savedGenInstructions"`
}

// CauseCounts is the attribution ledger's per-cause miss accounting for one
// session (attrib=1 only; zero otherwise). The regeneration causes —
// everything but Cold — sum exactly to Regenerations: the ledger's
// conservation invariant, which the server's offline verification leans on.
type CauseCounts struct {
	// Cold counts first compiles: the trace had never been seen.
	Cold uint64 `json:"cold,omitempty"`
	// Capacity counts re-heats of traces evicted under capacity pressure.
	Capacity uint64 `json:"capacity,omitempty"`
	// PrematureDemotion counts re-heats, within the re-heat window, of traces
	// that died out of a middle generation — the probation threshold deleted
	// a trace that was still hot.
	PrematureDemotion uint64 `json:"prematureDemotion,omitempty"`
	// NeverPromoted counts re-heats of traces that died out of the first
	// generation without ever crossing the promotion threshold.
	NeverPromoted uint64 `json:"neverPromoted,omitempty"`
	// UnmapForced counts re-heats forced by a module unmap.
	UnmapForced uint64 `json:"unmapForced,omitempty"`
	// AdoptionMiss counts regenerations of identities known to the shared
	// tier that had no publisher resident when the session needed them.
	AdoptionMiss uint64 `json:"adoptionMiss,omitempty"`
	// RemoteAdoption counts regenerations whose generation cost was absorbed
	// by another cluster node over the trace-exchange protocol: the private
	// replay regenerated (bit-identity with offline ccsim), the service did
	// not pay for it. Zero outside clustered deployments.
	RemoteAdoption uint64 `json:"remoteAdoption,omitempty"`
}

// AttribReport is the GET /v1/attrib response: the server-wide miss-cause
// aggregate over every attribution-enabled session since startup. Causes is a
// map so new causes extend the wire format without breaking decoders;
// encoding/json marshals map keys sorted, keeping the rendering
// deterministic.
type AttribReport struct {
	// EpochAccesses is the ledger epoch length in accesses (re-heat windows
	// are measured in these, never wall time).
	EpochAccesses uint64 `json:"epochAccesses"`
	// ReheatEpochs is the premature-demotion window: a middle-tier casualty
	// re-heated within this many epochs was demoted prematurely.
	ReheatEpochs uint64 `json:"reheatEpochs"`
	// Regenerations is the total classified regeneration count. The non-cold
	// cause totals sum to it exactly — conservation, asserted by Conserved.
	Regenerations uint64 `json:"regenerations"`
	// ColdCompiles is the cold (first-compile) total, outside conservation.
	ColdCompiles uint64 `json:"coldCompiles"`
	// Conserved reports the ledger's conservation invariant held.
	Conserved bool `json:"conserved"`
	// TopCause names the dominant regeneration cause, empty when no
	// regenerations were classified.
	TopCause string            `json:"topCause,omitempty"`
	Causes   map[string]uint64 `json:"causes"`
	// Modules are per-module rows under the query's filters, ranked by
	// regenerations (or by ?cause=) descending.
	Modules []AttribModule `json:"modules,omitempty"`
	// Session echoes the ?session= tenant filter when one was applied: the
	// report then covers only that tenant's sessions.
	Session string `json:"session,omitempty"`
	// Tenants lists every tenant label seen on attribution-enabled sessions
	// (sorted), so operators can discover what ?session= accepts. Only on
	// unfiltered reports.
	Tenants []string `json:"tenants,omitempty"`
}

// AttribModule is one module's row in an AttribReport.
type AttribModule struct {
	Module uint16      `json:"module"`
	Regens uint64      `json:"regens"`
	Causes CauseCounts `json:"causes"`
}

// SessionResult is the reply to one completed session.
type SessionResult struct {
	Session       int    `json:"session"`
	Benchmark     string `json:"benchmark"`
	Config        string `json:"config"`
	CapacityBytes uint64 `json:"capacityBytes"`
	Events        uint64 `json:"events"`

	Accesses      uint64  `json:"accesses"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	MissRate      float64 `json:"missRate"`
	ColdCreates   uint64  `json:"coldCreates"`
	Regenerations uint64  `json:"regenerations"`
	Adoptions     uint64  `json:"adoptions"`
	ForcedDeletes uint64  `json:"forcedDeletes"`

	Overhead Overhead      `json:"overhead"`
	Shared   SharedSavings `json:"shared"`
	Causes   CauseCounts   `json:"causes"`
}

// FromSim converts a simulator result into its wire form. The service fills
// in Session, CapacityBytes, Events, and Shared afterwards; offline
// verifiers fill in the same fields from their own run and compare.
func FromSim(r sim.Result) SessionResult {
	sr := SessionResult{
		Benchmark:     r.Benchmark,
		Config:        r.Config,
		Accesses:      r.Accesses,
		Hits:          r.Hits,
		Misses:        r.Misses,
		MissRate:      r.MissRate(),
		ColdCreates:   r.ColdCreates,
		Regenerations: r.Regenerations,
		Adoptions:     r.Adoptions,
		ForcedDeletes: r.ForcedDeletes,
	}
	if r.Overhead != nil {
		sr.Overhead = Overhead{
			TotalInstructions: r.Overhead.Total(),
			TraceGens:         r.Overhead.TraceGens,
			Evictions:         r.Overhead.Evictions,
			Promotions:        r.Overhead.Promotions,
		}
	}
	return sr
}

// StatsContentType is the compact binary framing of a SessionResult. A
// client that sends it as the Accept header of a non-events session gets the
// result in this framing instead of JSON; JSON stays the default (and the
// debug path — errors are always JSON). The framing is versioned by its
// magic, MarshalBinary writes it, UnmarshalBinary reads it.
const StatsContentType = "application/x-gencache-stats"

// statsMagic versions the binary result framing. GCST3 appended the cluster
// counters (peer adoptions, remote-adoption cause); GCST2 appended the
// attribution cause counters. Older payloads are rejected (stale peers fall
// back to JSON, the always-compatible debug path).
const statsMagic = "GCST3"

func appendU64(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// MarshalBinary encodes the result in the StatsContentType framing: the
// magic, the two name strings length-prefixed, counters as varints, and
// the instruction totals as fixed 64-bit floats.
func (r SessionResult) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 160)
	buf = append(buf, statsMagic...)
	buf = appendStr(buf, r.Benchmark)
	buf = appendStr(buf, r.Config)
	buf = appendU64(buf, uint64(r.Session))
	for _, v := range [...]uint64{
		r.CapacityBytes, r.Events,
		r.Accesses, r.Hits, r.Misses, r.ColdCreates, r.Regenerations,
		r.Adoptions, r.ForcedDeletes,
		r.Overhead.TraceGens, r.Overhead.Evictions, r.Overhead.Promotions,
		r.Shared.Adoptions, r.Shared.Published, r.Shared.PeerAdoptions,
		r.Causes.Cold, r.Causes.Capacity, r.Causes.PrematureDemotion,
		r.Causes.NeverPromoted, r.Causes.UnmapForced, r.Causes.AdoptionMiss,
		r.Causes.RemoteAdoption,
	} {
		buf = appendU64(buf, v)
	}
	buf = appendF64(buf, r.MissRate)
	buf = appendF64(buf, r.Overhead.TotalInstructions)
	buf = appendF64(buf, r.Shared.SavedGenInstructions)
	return buf, nil
}

// UnmarshalBinary decodes the StatsContentType framing. The frame must end
// with its last field: trailing bytes are an error, as on the exchange wire.
func (r *SessionResult) UnmarshalBinary(data []byte) error {
	if len(data) < len(statsMagic) || string(data[:len(statsMagic)]) != statsMagic {
		return fmt.Errorf("api: bad stats magic")
	}
	data = data[len(statsMagic):]
	u64 := func() uint64 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return v
	}
	str := func() string {
		n := u64()
		if uint64(len(data)) < n {
			data = nil
			return ""
		}
		s := string(data[:n])
		data = data[n:]
		return s
	}
	f64 := func() float64 {
		if len(data) < 8 {
			data = nil
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	r.Benchmark = str()
	r.Config = str()
	r.Session = int(u64())
	for _, dst := range [...]*uint64{
		&r.CapacityBytes, &r.Events,
		&r.Accesses, &r.Hits, &r.Misses, &r.ColdCreates, &r.Regenerations,
		&r.Adoptions, &r.ForcedDeletes,
		&r.Overhead.TraceGens, &r.Overhead.Evictions, &r.Overhead.Promotions,
		&r.Shared.Adoptions, &r.Shared.Published, &r.Shared.PeerAdoptions,
		&r.Causes.Cold, &r.Causes.Capacity, &r.Causes.PrematureDemotion,
		&r.Causes.NeverPromoted, &r.Causes.UnmapForced, &r.Causes.AdoptionMiss,
		&r.Causes.RemoteAdoption,
	} {
		*dst = u64()
	}
	r.MissRate = f64()
	r.Overhead.TotalInstructions = f64()
	r.Shared.SavedGenInstructions = f64()
	if data == nil {
		return fmt.Errorf("api: truncated binary stats")
	}
	if len(data) != 0 {
		return fmt.Errorf("api: %d trailing bytes after binary stats", len(data))
	}
	return nil
}

// Health is the /healthz reply.
type Health struct {
	Status          string  `json:"status"` // "ok" or "draining"
	ActiveSessions  int     `json:"activeSessions"`
	QueuedSessions  int     `json:"queuedSessions"`
	AdmissionSlots  int     `json:"admissionSlots"`  // current replay-slot limit
	AdmissionQueue  int     `json:"admissionQueue"`  // current waiting-room limit
	AdmissionResize uint64  `json:"admissionResize"` // times the limits have moved
	SessionsServed  uint64  `json:"sessionsServed"`
	SessionsDenied  uint64  `json:"sessionsDenied"`
	SharedUsedBytes uint64  `json:"sharedUsedBytes"`
	WarmRestored    uint64  `json:"warmRestored"`
	UptimeSeconds   float64 `json:"uptimeSeconds"`

	// Cluster membership, present only on clustered nodes (the zero values
	// render nothing, keeping single-node health replies byte-identical).
	ClusterNode  string `json:"clusterNode,omitempty"`
	ClusterPeers int    `json:"clusterPeers,omitempty"`
	ShardsOwned  int    `json:"shardsOwned,omitempty"`
}

// Error is the JSON error body of a non-200 reply.
type Error struct {
	Error string `json:"error"`
}

// Event is one observer event on a session's merged NDJSON stream.
type Event struct {
	Kind   string `json:"kind"`
	Trace  uint64 `json:"trace,omitempty"`
	Size   uint64 `json:"size,omitempty"`
	Module uint16 `json:"module,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Proc   int    `json:"proc,omitempty"`
	Done   uint64 `json:"done,omitempty"`
	Total  uint64 `json:"total,omitempty"`
	Policy string `json:"policy,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Node tags the event with a cluster node ID: the serving peer on
	// "peer-adopt" events, the emitting node on every event of a multi-node
	// feed. Absent on single-node deployments, keeping their streams
	// byte-identical to the pre-cluster service.
	Node string `json:"node,omitempty"`
}

// FromObs converts a bus event into its wire form. From and To are set only
// for the kinds they are meaningful on, so the NDJSON stays compact.
func FromObs(e obs.Event) Event {
	w := Event{Kind: e.Kind.String(), Trace: e.Trace, Size: e.Size, Module: e.Module, Proc: e.Proc}
	switch e.Kind {
	case obs.KindEvict, obs.KindUnmap, obs.KindFlush, obs.KindResize:
		w.From = e.From.String()
	case obs.KindInsert:
		w.To = e.To.String()
	case obs.KindPromote:
		w.From = e.From.String()
		w.To = e.To.String()
	case obs.KindProgress:
		w.Done = e.Done
		w.Total = e.Total
	case obs.KindPolicySwitch:
		w.From = e.From.String()
		w.Policy = e.Policy
	case obs.KindAdmissionResize:
		// Size carries the new slot count, Total the new queue depth.
		w.Total = e.Total
	case obs.KindRegenerate:
		w.From = e.From.String()
		w.Reason = e.Reason.String()
	case obs.KindPeerAdopt:
		w.Node = e.Node
	}
	return w
}

// StreamLine is one line of an events=1 NDJSON response: an observer event
// while the session runs, then exactly one closing line carrying either the
// final result or a terminal error.
type StreamLine struct {
	Event  *Event         `json:"event,omitempty"`
	Result *SessionResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// AppendEventLine appends to dst the NDJSON line a default json.Encoder
// writes for StreamLine{Event: e}: Event's fields in struct order, zero
// values omitted, and the trailing newline. A string holding a byte outside
// printable ASCII, or one of " \ < > &, is encoded by json.Marshal, so
// escaping (HTML-safe, as the encoder's default) cannot drift; everything
// else is written by hand, and a line into a buffer with room allocates
// nothing. FuzzEventLine holds it to the encoder's bytes.
func AppendEventLine(dst []byte, e *Event) []byte {
	dst = appendJSONString(append(dst, `{"event":{"kind":`...), e.Kind)
	dst = appendUintField(dst, `,"trace":`, e.Trace)
	dst = appendUintField(dst, `,"size":`, e.Size)
	dst = appendUintField(dst, `,"module":`, uint64(e.Module))
	dst = appendStringField(dst, `,"from":`, e.From)
	dst = appendStringField(dst, `,"to":`, e.To)
	if e.Proc != 0 {
		dst = strconv.AppendInt(append(dst, `,"proc":`...), int64(e.Proc), 10)
	}
	dst = appendUintField(dst, `,"done":`, e.Done)
	dst = appendUintField(dst, `,"total":`, e.Total)
	dst = appendStringField(dst, `,"policy":`, e.Policy)
	dst = appendStringField(dst, `,"reason":`, e.Reason)
	dst = appendStringField(dst, `,"node":`, e.Node)
	return append(dst, "}}\n"...)
}

func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendJSONString(append(dst, key...), s)
}

// appendJSONString appends s as a JSON string, quoting it by hand when no
// byte needs escaping and through json.Marshal otherwise.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// SessionConfig is a session's configuration: the knobs the query string of
// POST /v1/sessions carries, in the form in-process callers (the server's
// ServeSession and OfflineReplay) and ccsim's flags use. Zero values mean the
// service defaults.
type SessionConfig struct {
	// CapacityBytes, when >0, is the absolute simulated cache capacity.
	CapacityBytes uint64
	// CapFrac sizes the cache as a fraction of the log's unbounded peak when
	// CapacityBytes is 0. Zero means the service default (0.5).
	CapFrac float64
	// Layout is the N-P-S percentage split; empty means "45-10-45".
	Layout string
	// Threshold is the probation promotion threshold; zero means 1.
	Threshold uint64
	// Tiers, when set, replays an arbitrary tier graph (core.ParseTierSpec).
	Tiers string
	// Policy applies a local-policy spec to tiers that don't name one.
	Policy string
	// SelEpoch overrides the online policy-selector epoch.
	SelEpoch uint64
	// Unified replays the single pseudo-circular baseline.
	Unified bool
	// Adaptive attaches the adaptive split controller.
	Adaptive bool
	// AdaptEpoch overrides the adaptive controller's decision epoch.
	AdaptEpoch uint64
	// Pressure is the load pressure in [0, 1] the session starts under.
	// Callers must pass the same value to ServeSession and the verifying
	// OfflineReplay, or the adaptive controller will decide differently.
	Pressure float64
	// Attrib attaches the attribution ledger: the result carries per-cause
	// miss counts and the session folds into the server's /v1/attrib
	// aggregate. The ledger only observes, so replay counters are unchanged.
	Attrib bool
	// Tenant is the opaque session label (?session=, ≤64 bytes): attribution
	// folds into the tenant's aggregate as well as the server-wide one. It
	// never influences the replay.
	Tenant string
}

// ValidCapFrac reports whether f is an accepted capacity fraction, in
// (0, 16]. Like ValidPressure it is written as an acceptance, so NaN, which
// compares false with everything, fails it. The session query string and
// ccsim's -capfrac are both checked through these.
func ValidCapFrac(f float64) bool { return f > 0 && f <= 16 }

// ValidPressure reports whether f is an accepted load pressure, in [0, 1].
func ValidPressure(f float64) bool { return f >= 0 && f <= 1 }

// GraphSpec turns the configuration into the tier graph a replay over
// capacity bytes runs: the one-tier unified baseline (Unified), an arbitrary
// graph (Tiers), or the stock generational chain from Layout and Threshold.
// Policy then fills every tier that names none, and SelEpoch, Adaptive and
// Attrib attach the selector epoch, the split controller, and the
// attribution ledger; emit makes the ledger publish its cause events. ccsim's
// flags and the session query string both resolve through it, so ccsim, a
// served session, and its offline verification build the same graph.
func (c SessionConfig) GraphSpec(capacity uint64, emit bool) (core.GraphSpec, error) {
	var spec core.GraphSpec
	switch {
	case c.Unified:
		spec = core.UnifiedSpec(capacity, nil)
	case c.Tiers != "":
		var err error
		if spec, err = core.ParseTierSpec(c.Tiers, capacity); err != nil {
			return spec, err
		}
	default:
		layout := c.Layout
		if layout == "" {
			layout = "45-10-45"
		}
		fracs, err := ParseLayout(layout)
		if err != nil {
			return spec, err
		}
		threshold := max(c.Threshold, 1)
		spec = core.Config{
			TotalCapacity:    capacity,
			NurseryFrac:      fracs[0],
			ProbationFrac:    fracs[1],
			PersistentFrac:   fracs[2],
			PromoteThreshold: threshold,
			PromoteOnAccess:  threshold == 1,
		}.GraphSpec()
	}
	if c.Policy != "" {
		for i := range spec.Tiers {
			if spec.Tiers[i].Policy == "" {
				spec.Tiers[i].Policy = c.Policy
			}
		}
	}
	if c.SelEpoch > 0 {
		spec.Selector = &core.SelectorConfig{Epoch: c.SelEpoch}
	}
	if c.Adaptive {
		spec.Adaptive = &core.AdaptiveConfig{Epoch: c.AdaptEpoch}
	}
	if c.Attrib {
		spec.Attrib = &attrib.Config{EmitEvents: emit}
	}
	return spec, spec.Validate()
}

// ParseLayout parses an N-P-S percentage split ("45-10-45") into fractions.
// It is the one layout grammar of the system: SessionConfig.GraphSpec
// resolves Layout through it for ccsim's -layout flag and the service's
// layout parameter alike. Like ValidCapFrac its checks are acceptances, so
// NaN fails them.
func ParseLayout(s string) ([3]float64, error) {
	var res [3]float64
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return res, fmt.Errorf("layout %q must be N-P-S percentages", s)
	}
	sum := 0.0
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || !(v > 0) {
			return res, fmt.Errorf("bad layout component %q", p)
		}
		res[i] = v / 100
		sum += v
	}
	if !(sum >= 99.5 && sum <= 100.5) {
		return res, fmt.Errorf("layout %q must sum to 100", s)
	}
	return res, nil
}
