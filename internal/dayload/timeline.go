package dayload

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/server/api"
	"repro/internal/simclock"
)

// Row is one closed reporting interval of the day.
type Row struct {
	// Hour is the declared time at the interval's close, in hours into the day.
	Hour float64
	// Interval activity.
	Arrivals  int
	Admitted  int
	Rejected  int
	Completed int
	// Instantaneous state at the close.
	Queued     int
	Slots      int
	QueueCap   int
	Resizes    uint64
	SharedUsed uint64
	// Replay counters over the interval.
	Accesses  uint64
	Misses    uint64
	MissRate  float64
	Adoptions uint64
	Published uint64
	// MeanLatencyMS averages arrival→completion over sessions completing in
	// the interval, in declared milliseconds.
	MeanLatencyMS float64
	// Causes is the interval's miss-cause breakdown (Options.Attrib only;
	// zero otherwise). Summed over sessions starting in the interval.
	Causes api.CauseCounts
}

// rowState is the instantaneous server state sampled at an interval close.
type rowState struct {
	running, queued int
	slots, queueCap int
	resizes         uint64
	sharedUsed      uint64
}

// CSVHeader is the timeline CSV schema, exported so scripts and tests can
// assert it. TestProductionDayAutoWins pins it verbatim — keep additive
// changes at the end.
const CSVHeader = "hour,arrivals,admitted,rejected,completed,queued,slots,queue_cap,resizes,accesses,misses,miss_rate,adoptions,published,shared_used,mean_latency_ms,cold,capacity,premature_demotion,never_promoted,unmap_forced,adoption_miss"

// tlEvent is one merged-stream NDJSON line. Field order is the wire order;
// the stream is a deterministic function of the day.
type tlEvent struct {
	T         float64 `json:"t"` // declared seconds into the day
	Kind      string  `json:"kind"`
	Bench     string  `json:"bench,omitempty"`
	Seq       int     `json:"seq,omitempty"`
	Crowd     bool    `json:"crowd,omitempty"`
	Slots     int     `json:"slots,omitempty"`
	Queue     int     `json:"queue,omitempty"`
	Modules   int     `json:"modules,omitempty"`
	MissRate  float64 `json:"missRate,omitempty"`
	ServiceMS float64 `json:"serviceMs,omitempty"`
	LatencyMS float64 `json:"latencyMs,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// timeline accumulates the day's outputs: per-interval CSV rows, the merged
// NDJSON event stream, and the day totals the report is built from.
type timeline struct {
	spec Spec
	opts Options
	arm  string

	arrivals    int
	totAccesses uint64
	totMisses   uint64

	// Current-interval accumulators, zeroed at each closeRow.
	curArrivals  int
	curAdmitted  int
	curRejected  int
	curCompleted int
	curAccesses  uint64
	curMisses    uint64
	curAdoptions uint64
	curPublished uint64
	curCauses    api.CauseCounts
	curLatSum    time.Duration
	curLatN      int

	totCauses api.CauseCounts
	totRegens uint64

	rows   []Row
	events []tlEvent
}

func newTimeline(spec Spec, opts Options) *timeline {
	return &timeline{spec: spec, opts: opts, arm: ArmName(opts)}
}

// ArmName labels an Options combination in reports: "static-4x8",
// "auto", "auto+reactive", with an "@tiers" suffix for overridden shapes.
func ArmName(o Options) string {
	o = o.withDefaults()
	name := fmt.Sprintf("static-%dx%d", o.Slots, o.Queue)
	if o.Autoscale != nil {
		name = "auto"
	}
	if o.LoadReactive {
		name += "+reactive"
	}
	if o.Tiers != "" {
		name += "@" + o.Tiers
	}
	return name
}

// declared maps a virtual instant back onto the declared (uncompressed)
// plane, as seconds into the day.
func (t *timeline) declared(now time.Time) float64 {
	scale := t.spec.TimeScale
	if scale <= 0 {
		scale = 1
	}
	return now.Sub(simclock.Epoch).Seconds() * scale
}

func (t *timeline) emit(e tlEvent) { t.events = append(t.events, e) }

func (t *timeline) arrival(now time.Time, a arrival) {
	t.arrivals++
	t.curArrivals++
	t.emit(tlEvent{T: t.declared(now), Kind: "arrival", Bench: a.bench, Seq: a.seq, Crowd: a.crowd})
}

func (t *timeline) queued(now time.Time, a arrival) {
	t.emit(tlEvent{T: t.declared(now), Kind: "queued", Bench: a.bench, Seq: a.seq})
}

func (t *timeline) rejected(now time.Time, a arrival) {
	t.curRejected++
	t.emit(tlEvent{T: t.declared(now), Kind: "reject", Bench: a.bench, Seq: a.seq})
}

func (t *timeline) failed(now time.Time, a arrival, err error) {
	t.emit(tlEvent{T: t.declared(now), Kind: "fail", Bench: a.bench, Seq: a.seq, Err: err.Error()})
}

func (t *timeline) started(now time.Time, a arrival, res api.SessionResult, service time.Duration) {
	t.curAdmitted++
	t.curAccesses += res.Accesses
	t.curMisses += res.Misses
	t.curAdoptions += res.Shared.Adoptions
	t.curPublished += res.Shared.Published
	if t.opts.Attrib {
		addCauses(&t.curCauses, res.Causes)
		addCauses(&t.totCauses, res.Causes)
		t.totRegens += res.Regenerations
	}
	t.totAccesses += res.Accesses
	t.totMisses += res.Misses
	scale := t.spec.TimeScale
	if scale <= 0 {
		scale = 1
	}
	t.emit(tlEvent{
		T: t.declared(now), Kind: "start", Bench: a.bench, Seq: a.seq,
		MissRate:  res.MissRate,
		ServiceMS: service.Seconds() * scale * 1000,
	})
}

func (t *timeline) completed(now time.Time, a arrival, lat time.Duration, missRate float64) {
	t.curCompleted++
	t.curLatSum += lat
	t.curLatN++
	scale := t.spec.TimeScale
	if scale <= 0 {
		scale = 1
	}
	t.emit(tlEvent{
		T: t.declared(now), Kind: "complete", Bench: a.bench, Seq: a.seq,
		MissRate: missRate, LatencyMS: lat.Seconds() * scale * 1000,
	})
}

func (t *timeline) resized(now time.Time, slots, queue int) {
	t.emit(tlEvent{T: t.declared(now), Kind: "resize", Slots: slots, Queue: queue})
}

func (t *timeline) deployed(now time.Time, bench string, modules int) {
	t.emit(tlEvent{T: t.declared(now), Kind: "deploy", Bench: bench, Modules: modules})
}

// closeRow finishes the current reporting interval.
func (t *timeline) closeRow(now time.Time, st rowState) {
	r := Row{
		Hour:       t.declared(now) / 3600,
		Arrivals:   t.curArrivals,
		Admitted:   t.curAdmitted,
		Rejected:   t.curRejected,
		Completed:  t.curCompleted,
		Queued:     st.queued,
		Slots:      st.slots,
		QueueCap:   st.queueCap,
		Resizes:    st.resizes,
		SharedUsed: st.sharedUsed,
		Accesses:   t.curAccesses,
		Misses:     t.curMisses,
		Adoptions:  t.curAdoptions,
		Published:  t.curPublished,
		Causes:     t.curCauses,
	}
	if t.curAccesses > 0 {
		r.MissRate = float64(t.curMisses) / float64(t.curAccesses)
	}
	scale := t.spec.TimeScale
	if scale <= 0 {
		scale = 1
	}
	if t.curLatN > 0 {
		r.MeanLatencyMS = t.curLatSum.Seconds() * scale * 1000 / float64(t.curLatN)
	}
	t.rows = append(t.rows, r)
	t.curArrivals, t.curAdmitted, t.curRejected, t.curCompleted = 0, 0, 0, 0
	t.curAccesses, t.curMisses, t.curAdoptions, t.curPublished = 0, 0, 0, 0
	t.curCauses = api.CauseCounts{}
	t.curLatSum, t.curLatN = 0, 0
}

// addCauses accumulates one session's cause counts into dst.
func addCauses(dst *api.CauseCounts, c api.CauseCounts) {
	dst.Cold += c.Cold
	dst.Capacity += c.Capacity
	dst.PrematureDemotion += c.PrematureDemotion
	dst.NeverPromoted += c.NeverPromoted
	dst.UnmapForced += c.UnmapForced
	dst.AdoptionMiss += c.AdoptionMiss
	dst.RemoteAdoption += c.RemoteAdoption
}

// csv renders the timeline rows.
func (t *timeline) csv() string {
	var b strings.Builder
	b.WriteString(CSVHeader)
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%.3f,%d,%d,%d,%d,%d,%d\n",
			r.Hour, r.Arrivals, r.Admitted, r.Rejected, r.Completed,
			r.Queued, r.Slots, r.QueueCap, r.Resizes,
			r.Accesses, r.Misses, r.MissRate, r.Adoptions, r.Published,
			r.SharedUsed, r.MeanLatencyMS,
			r.Causes.Cold, r.Causes.Capacity, r.Causes.PrematureDemotion,
			r.Causes.NeverPromoted, r.Causes.UnmapForced, r.Causes.AdoptionMiss)
	}
	return b.String()
}

// ndjson renders the merged event stream, one JSON object per line, in
// virtual-time order (same-instant ties in emission order, which the
// engine's registration order fixes).
func (t *timeline) ndjson() string {
	var b strings.Builder
	for _, e := range t.events {
		line, err := json.Marshal(e)
		if err != nil {
			continue
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// Result is the end-of-day report for one arm.
type Result struct {
	Spec string
	Arm  string
	// Sessions is the day's total arrivals; Served + Rejected + Failures +
	// QueuedAtEnd accounts for all of them (sessions admitted before day end
	// complete during the drain and count as served).
	Sessions     int
	Served       int
	Rejected     int
	Failures     int
	VerifyFailed int
	QueuedAtEnd  int
	Resizes      uint64
	// P50Latency and P95Latency are arrival→completion in virtual time.
	P50Latency time.Duration
	P95Latency time.Duration
	// AvgMemBytes is the time-integrated memory footprint over the day:
	// running sessions' simulated capacities plus the shared tier's resident
	// bytes, integrated over virtual time and divided by the day's span.
	AvgMemBytes float64
	// AvgSlots is the time-integrated provisioned replay-slot count — the
	// concurrency an operator pays for. The A/B harness's "equal aggregate
	// memory" comparison runs on this: a static arm holds its slot count all
	// day, the autoscaled arm pays for peaks only.
	AvgSlots      float64
	SharedUsed    uint64
	TotalAccesses uint64
	TotalMisses   uint64
	// Causes and Regenerations are the day-wide attribution totals
	// (Options.Attrib only). The non-cold causes sum to Regenerations
	// exactly — the ledger's conservation invariant, aggregated over every
	// served session.
	Causes        api.CauseCounts
	Regenerations uint64
	Rows          []Row
	CSV           string
	NDJSON        string
}

// CausesConserved reports the day-wide conservation invariant: the non-cold
// cause totals sum exactly to the regeneration total. Vacuously true without
// Options.Attrib (all zeros).
func (r *Result) CausesConserved() bool {
	c := r.Causes
	return c.Capacity+c.PrematureDemotion+c.NeverPromoted+c.UnmapForced+c.AdoptionMiss+c.RemoteAdoption == r.Regenerations
}

// MissRate is the day-wide replay miss rate.
func (r *Result) MissRate() float64 {
	if r.TotalAccesses == 0 {
		return 0
	}
	return float64(r.TotalMisses) / float64(r.TotalAccesses)
}

// String is the human report block.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "day %s arm %s: %d sessions — %d served, %d rejected (429), %d failed, %d unfinished\n",
		r.Spec, r.Arm, r.Sessions, r.Served, r.Rejected, r.Failures, r.QueuedAtEnd)
	fmt.Fprintf(&b, "  latency p50 %s p95 %s (virtual)  miss rate %.4f  resizes %d\n",
		r.P50Latency, r.P95Latency, r.MissRate(), r.Resizes)
	fmt.Fprintf(&b, "  avg memory %.0f bytes (time-integrated)  shared used %d  verify failures %d\n",
		r.AvgMemBytes, r.SharedUsed, r.VerifyFailed)
	if r.Regenerations > 0 || r.Causes != (api.CauseCounts{}) {
		c := r.Causes
		fmt.Fprintf(&b, "  why: %d regenerations — capacity %d, premature-demotion %d, never-promoted %d, unmap-forced %d, adoption-miss %d, remote-adoption %d (cold %d; conserved %v)\n",
			r.Regenerations, c.Capacity, c.PrematureDemotion, c.NeverPromoted,
			c.UnmapForced, c.AdoptionMiss, c.RemoteAdoption, c.Cold, r.CausesConserved())
	}
	return b.String()
}
