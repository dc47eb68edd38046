package dayload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Options configure one run of a day against one server instance.
type Options struct {
	// SharedCapacity sizes the server's shared persistent tier (default 8 MiB).
	SharedCapacity uint64
	// Slots and Queue are the admission limits the day starts with
	// (defaults 4 and 8). A static arm keeps them all day; an autoscaled
	// arm starts here and moves.
	Slots int
	Queue int
	// Autoscale attaches the admission autoscaler; nil leaves admission
	// static. The engine ticks it once per declared TickEvery.
	Autoscale *server.AutoscaleConfig
	// TickEvery is the declared-time autoscaler cadence (default 5m).
	TickEvery time.Duration
	// LoadReactive turns every session adaptive and feeds it the load
	// pressure observed at its arrival — the "splits respond to arrival
	// intensity" arm. Off, sessions run exactly their mix's Config.
	LoadReactive bool
	// Tiers, when set, overrides every mix's session cache shape with a tier
	// string (api.SessionConfig.Tiers) — how the A/B harness sweeps static
	// split settings without editing the spec.
	Tiers string
	// Verify replays every served session offline (server.OfflineReplay,
	// same config and pressure) and counts divergences. Doubles the compute;
	// the acceptance gate that served == ccsim bit-for-bit.
	Verify bool
	// Attrib attaches the attribution ledger to every session: each timeline
	// row carries the interval's miss-cause breakdown and the day report ends
	// with conserved cause totals. The ledger only observes, so every replay
	// counter — and the Verify gate — is unchanged.
	Attrib bool
	// Logs supplies pre-synthesized tracelogs by benchmark name; missing
	// benches are synthesized at Scale. Sharing one map across arms keeps
	// an A/B comparison byte-identical on input.
	Logs map[string][]byte

	// EventCost is the declared execution time per log event of the original
	// program a session stands in for (default 10ms): a session holds its
	// replay slot for as long as the traced production process would have
	// run. A session's declared service time is
	//
	//	events × EventCost × (1 + MissFactor × missRate)
	//
	// so better cache behavior means shorter service, less slot occupancy,
	// less queueing — the coupling that lets split quality move 429 counts.
	EventCost time.Duration
	// MissFactor is the service-time multiplier at miss rate 1 (default 4).
	MissFactor float64
}

func (o Options) withDefaults() Options {
	if o.SharedCapacity == 0 {
		o.SharedCapacity = 8 << 20
	}
	if o.Slots == 0 {
		o.Slots = 4
	}
	if o.Queue == 0 {
		o.Queue = 2 * o.Slots
	}
	if o.TickEvery == 0 {
		o.TickEvery = 5 * time.Minute
	}
	if o.EventCost == 0 {
		o.EventCost = 10 * time.Millisecond
	}
	if o.MissFactor == 0 {
		o.MissFactor = 4
	}
	return o
}

// session is one arrival moving through the day.
type session struct {
	arr       arrival
	cfg       server.SessionConfig // final config, pressure included
	arrivedAt time.Time            // virtual
	startedAt time.Time
}

// engine runs one compiled day against one server. Everything happens on
// the owning goroutine inside virtual-clock timer callbacks: replays are
// synchronous, the FIFO queue is a slice, and the only concurrency in sight
// is the admission controller's own locking (shared with the HTTP plane).
type engine struct {
	spec Spec
	opts Options
	clk  *simclock.Virtual
	srv  *server.Server
	logs map[string][]byte

	queue []*session // engine-owned FIFO of admission-queued sessions

	tl        *timeline
	latencies []time.Duration

	served       int
	rejected     int
	failures     int
	verifyFailed int
	overtime     int // sessions still running or queued at day end

	// Time-integrated occupancy: memory (running sessions' capacities plus
	// the shared tier) and provisioned slots, integrated over virtual time.
	runningCapSum uint64
	memByteSec    float64
	slotSec       float64
	lastMemAt     time.Time
}

// Run drives one day. The returned Result's CSV and NDJSON are
// bit-reproducible functions of (spec, opts).
func Run(spec Spec, opts Options) (*Result, error) {
	spec = spec.withDefaults()
	opts = opts.withDefaults()
	arrs, err := spec.compile()
	if err != nil {
		return nil, err
	}

	logs := make(map[string][]byte, len(opts.Logs))
	for k, v := range opts.Logs {
		logs[k] = v
	}
	need := map[string]bool{}
	for _, a := range arrs {
		need[a.bench] = true
	}
	benches := make([]string, 0, len(need))
	for b := range need {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	for _, b := range benches {
		if logs[b] != nil {
			continue
		}
		data, err := workload.SyntheticLog(b, spec.Scale)
		if err != nil {
			return nil, fmt.Errorf("dayload: synthesizing %s: %w", b, err)
		}
		logs[b] = data
	}

	clk := simclock.NewVirtual()
	srv, err := server.New(server.Config{
		SharedCapacity: opts.SharedCapacity,
		MaxSessions:    opts.Slots,
		QueueDepth:     opts.Queue,
		KeepWarm:       true,
		Clock:          clk,
		Autoscale:      opts.Autoscale,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}

	e := &engine{
		spec:      spec,
		opts:      opts,
		clk:       clk,
		srv:       srv,
		logs:      logs,
		tl:        newTimeline(spec, opts),
		lastMemAt: clk.Now(),
	}

	// Registration order fixes same-instant firing order: interval
	// boundaries snapshot first, then the autoscaler reacts, then deploys,
	// then arrivals land — a session arriving exactly on a tick boundary
	// sees the freshly scaled limits.
	dayEndV := clk.Now().Add(e.vdur(spec.DayLength))
	for t := spec.Interval; t <= spec.DayLength; t += spec.Interval {
		at := clk.Now().Add(e.vdur(t))
		clk.ScheduleAt(at, func(now time.Time) { e.intervalBoundary(now) })
	}
	if opts.Autoscale != nil {
		for t := opts.TickEvery; t <= spec.DayLength; t += opts.TickEvery {
			at := clk.Now().Add(e.vdur(t))
			clk.ScheduleAt(at, func(now time.Time) { e.autoscaleTick(now) })
		}
	}
	for _, d := range spec.Deploys {
		d := d
		clk.ScheduleAt(clk.Now().Add(e.vdur(d.At)), func(now time.Time) { e.deploy(now, d) })
	}
	for _, a := range arrs {
		a := a
		clk.ScheduleAt(clk.Now().Add(e.vdur(a.at)), func(now time.Time) { e.arrive(now, a) })
	}

	// Run the whole day, then drain the tail: sessions admitted before day
	// end finish after it.
	clk.AdvanceTo(dayEndV)
	clk.Drain()
	e.accountMem(clk.Now())

	return e.result(dayEndV)
}

// vdur maps a declared duration onto the virtual (compressed) plane.
func (e *engine) vdur(d time.Duration) time.Duration {
	return simclock.Compressed(d, e.spec.TimeScale)
}

// pressure quantizes the admission occupancy observed at arrival into the
// session parameter: (running+queued) relative to twice the slot count,
// clamped to [0,1], in 1/16 steps so the value round-trips exactly through
// the wire format.
func (e *engine) pressure() float64 {
	running, queued, _ := e.srv.AdmissionLoad()
	slots, _, _ := e.srv.AdmissionLimits()
	if slots < 1 {
		slots = 1
	}
	p := float64(running+queued) / float64(2*slots)
	if p > 1 {
		p = 1
	}
	return math.Round(p*16) / 16
}

// arrive is a session hitting admission.
func (e *engine) arrive(now time.Time, a arrival) {
	cfg := a.cfg
	if e.opts.Tiers != "" {
		cfg.Tiers = e.opts.Tiers
	}
	if e.opts.LoadReactive {
		cfg.Adaptive = true
		cfg.Pressure = e.pressure()
	}
	if e.opts.Attrib {
		cfg.Attrib = true
	}
	s := &session{arr: a, cfg: cfg, arrivedAt: now}
	e.tl.arrival(now, a)
	adm := e.srv.Admission()
	if adm.TryAcquire() {
		e.start(now, s)
		return
	}
	if adm.TryEnqueue() {
		e.queue = append(e.queue, s)
		e.tl.queued(now, a)
		return
	}
	e.rejected++
	e.tl.rejected(now, a)
}

// start replays a session synchronously at its virtual start time and
// schedules its completion one modeled service time later. The replay
// mutates the shared tier now, in virtual-time order — which is exactly
// what makes the day deterministic.
func (e *engine) start(now time.Time, s *session) {
	s.startedAt = now
	res, err := e.srv.ServeSession(s.cfg, e.logs[s.arr.bench])
	if err != nil {
		e.failures++
		e.srv.Admission().Release()
		e.tl.failed(now, s.arr, err)
		e.promote(now)
		return
	}
	if e.opts.Verify {
		off, verr := server.OfflineReplay(s.cfg, nil, e.logs[s.arr.bench])
		if verr != nil || !server.ResultsEquivalent(res, off) {
			e.verifyFailed++
		}
	}
	e.accountMem(now)
	e.runningCapSum += res.CapacityBytes
	service := e.serviceTime(res.Events, res.MissRate)
	e.tl.started(now, s.arr, res, service)
	cap := res.CapacityBytes
	e.clk.ScheduleAt(now.Add(service), func(t time.Time) { e.complete(t, s, cap, res.MissRate) })
}

// serviceTime is the modeled virtual duration a session occupies its slot.
func (e *engine) serviceTime(events uint64, missRate float64) time.Duration {
	declared := time.Duration(float64(events) * float64(e.opts.EventCost) * (1 + e.opts.MissFactor*missRate))
	v := e.vdur(declared)
	if v <= 0 {
		v = time.Nanosecond
	}
	return v
}

// complete releases the session's slot and starts the next queued session
// if one fits.
func (e *engine) complete(now time.Time, s *session, capacity uint64, missRate float64) {
	e.accountMem(now)
	e.runningCapSum -= capacity
	e.served++
	lat := now.Sub(s.arrivedAt)
	e.latencies = append(e.latencies, lat)
	e.tl.completed(now, s.arr, lat, missRate)
	e.srv.Admission().Release()
	e.promote(now)
}

// promote moves queued sessions into freed slots, FIFO.
func (e *engine) promote(now time.Time) {
	adm := e.srv.Admission()
	for len(e.queue) > 0 && adm.PromoteQueued() {
		s := e.queue[0]
		e.queue[0] = nil
		e.queue = e.queue[1:]
		e.start(now, s)
	}
}

// autoscaleTick runs one scaler decision on the virtual cadence.
func (e *engine) autoscaleTick(now time.Time) {
	e.accountMem(now) // integrate the outgoing slot count before it moves
	if e.srv.AutoscaleTick() {
		slots, queue, _ := e.srv.AdmissionLimits()
		e.tl.resized(now, slots, queue)
		// Growth may have opened slots for the engine's queued sessions.
		e.promote(now)
	}
}

// deploy fires one scheduled mass-unmap.
func (e *engine) deploy(now time.Time, d Deploy) {
	n := e.srv.DeployUnmap(d.Bench)
	e.tl.deployed(now, d.Bench, n)
}

// intervalBoundary closes the current timeline row.
func (e *engine) intervalBoundary(now time.Time) {
	e.accountMem(now)
	running, queued, _ := e.srv.AdmissionLoad()
	slots, queueCap, resizes := e.srv.AdmissionLimits()
	e.tl.closeRow(now, rowState{
		running: running, queued: queued,
		slots: slots, queueCap: queueCap, resizes: resizes,
		sharedUsed: e.srv.Shared().Used(),
	})
}

// accountMem integrates current memory and slot occupancy up to now.
func (e *engine) accountMem(now time.Time) {
	dt := now.Sub(e.lastMemAt).Seconds()
	if dt > 0 {
		e.memByteSec += dt * float64(e.runningCapSum+e.srv.Shared().Used())
		slots, _, _ := e.srv.AdmissionLimits()
		e.slotSec += dt * float64(slots)
		e.lastMemAt = now
	}
}

// result assembles the end-of-day report.
func (e *engine) result(dayEndV time.Time) (*Result, error) {
	e.overtime = len(e.queue)
	r := &Result{
		Spec:          e.spec.Name,
		Arm:           e.tl.arm,
		Sessions:      e.tl.arrivals,
		Served:        e.served,
		Rejected:      e.rejected,
		Failures:      e.failures,
		VerifyFailed:  e.verifyFailed,
		QueuedAtEnd:   e.overtime,
		Resizes:       func() uint64 { _, _, n := e.srv.AdmissionLimits(); return n }(),
		Rows:          e.tl.rows,
		CSV:           e.tl.csv(),
		NDJSON:        e.tl.ndjson(),
		SharedUsed:    e.srv.Shared().Used(),
		TotalAccesses: e.tl.totAccesses,
		TotalMisses:   e.tl.totMisses,
		Causes:        e.tl.totCauses,
		Regenerations: e.tl.totRegens,
	}
	daySec := dayEndV.Sub(simclock.Epoch).Seconds()
	if last := e.lastMemAt.Sub(simclock.Epoch).Seconds(); last > daySec {
		daySec = last
	}
	if daySec > 0 {
		r.AvgMemBytes = e.memByteSec / daySec
		r.AvgSlots = e.slotSec / daySec
	}
	if len(e.latencies) > 0 {
		lats := append([]time.Duration(nil), e.latencies...)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		r.P50Latency = lats[len(lats)/2]
		r.P95Latency = lats[(len(lats)*95)/100]
	}
	return r, nil
}
