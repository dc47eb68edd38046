package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/tracelog"
)

// The serve workload is gencached on a loopback listener with two
// closed-loop callers, each waiting for its result before sending the next
// session, as the loadtest and CI-style callers do. Sessions replay logs
// synthesized during set-up, in six classes that use the sim and core
// layers differently.

// serveCallers is the closed loop's client count, one per core of the
// benchmark host; the server admits as many sessions at once.
const serveCallers = 2

type serveClass int

const (
	classBuffered serveClass = iota // capfrac 0.5, JSON result
	classBinary                     // capfrac 0.5, binary stats
	classStream                     // absolute capacity: the streaming path
	classAttrib                     // attrib=1: the attribution ledger
	classEvents                     // events=1: NDJSON, the observed per-event path
	classAuto                       // policy=auto: the online policy selector
	numClasses
)

var classNames = [numClasses]string{"buffered", "binary", "stream", "attrib", "events", "auto"}

// classWeights are sessions per 40 of each class. The four cheap classes
// (about 6.5 ms a session on the benchmark host) make 75% of the mix, so
// the median sits inside them; events=1 (~16 ms) and policy=auto (~34 ms)
// make the top quarter, so the 95th percentile sits inside policy=auto.
var classWeights = [numClasses]int{8, 8, 8, 6, 5, 5}

// offlineConfig is the offline replay configuration a class's session must
// match; events and binary sessions differ from buffered ones only on the
// wire.
func offlineConfig(c serveClass, streamCap uint64) server.SessionConfig {
	switch c {
	case classStream:
		return server.SessionConfig{CapacityBytes: streamCap}
	case classAttrib:
		return server.SessionConfig{Attrib: true}
	case classAuto:
		return server.SessionConfig{Policy: "auto"}
	}
	return server.SessionConfig{}
}

// pair is one session of the deck: a log and a class.
type pair struct {
	log   int
	class serveClass
}

// serveEnv is one set-up instance: logs, expected results, a listening
// server, and the callers' HTTP client.
type serveEnv struct {
	logs      []synthLog
	streamCap []uint64
	expected  map[pair]api.SessionResult
	counters  map[string]uint64 // hits and misses per (log, class)
	goldOK    bool
	deck      []pair

	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
	cl     *client.Client
}

func setupServe(ctx context.Context, o opts) (*serveEnv, error) {
	logs, err := synthesizeServed(o)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{logs: logs, expected: make(map[pair]api.SessionResult), counters: make(map[string]uint64)}
	for li, l := range logs {
		base, err := server.OfflineReplay(server.SessionConfig{}, nil, l.data)
		if err != nil {
			return nil, err
		}
		e.streamCap = append(e.streamCap, base.CapacityBytes*4/5)
		for c := serveClass(0); c < numClasses; c++ {
			res := base
			if cfg := offlineConfig(c, e.streamCap[li]); cfg != (server.SessionConfig{}) {
				if res, err = server.OfflineReplay(cfg, nil, l.data); err != nil {
					return nil, err
				}
			}
			e.expected[pair{li, c}] = res
			key := l.name + "/" + classNames[c]
			e.counters["hits/"+key] = res.Hits
			e.counters["misses/"+key] = res.Misses
		}
	}
	cc, err := newCounterChecker(o)
	if err != nil {
		return nil, err
	}
	e.goldOK = cc.check(e.counters)

	// The deck holds every log with every class in its weight, shuffled by
	// the seed; the callers deal it out in order, cycling.
	for li := range logs {
		for c, w := range classWeights {
			for i := 0; i < w; i++ {
				e.deck = append(e.deck, pair{li, serveClass(c)})
			}
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(e.deck), func(i, j int) { e.deck[i], e.deck[j] = e.deck[j], e.deck[i] })

	e.srv, err = server.New(server.Config{MaxSessions: serveCallers, KeepWarm: true, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveCallers, DisableCompression: true}}
	e.cl = &client.Client{BaseURL: e.base, HTTPClient: e.hc}

	// Warm-up: every (log, class) once, so the shared tier has adopted and
	// every lazy path has run before timing starts.
	for li := range logs {
		for c := serveClass(0); c < numClasses; c++ {
			p := pair{li, c}
			res, err := e.session(ctx, p)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up %s/%s: %w", logs[li].name, classNames[c], err)
			}
			if !e.check(p, res) {
				e.close()
				return nil, fmt.Errorf("warm-up %s/%s: result differs from offline replay", logs[li].name, classNames[c])
			}
		}
	}
	return e, nil
}

// close stops the server and waits for its accept loop to return.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a session still open after 10s is dropped; the run has ended
	<-e.served
	e.hc.CloseIdleConnections()
}

// check reports whether a served result matches its offline replay and the
// golden counters.
func (e *serveEnv) check(p pair, res api.SessionResult) bool {
	return e.goldOK && server.ResultsEquivalent(res, e.expected[p])
}

// session runs one session of the given pair over HTTP.
func (e *serveEnv) session(ctx context.Context, p pair) (api.SessionResult, error) {
	data := e.logs[p.log].data
	var so client.SessionOptions
	switch p.class {
	case classBinary:
		so.BinaryStats = true
	case classStream:
		so.CapacityBytes = e.streamCap[p.log]
	case classAttrib:
		so.Attrib = true
	case classAuto:
		so.Policy = "auto"
	case classEvents:
		return e.eventsSession(ctx, data)
	}
	return e.cl.Session(ctx, so, bytes.NewReader(data))
}

// eventsSession runs an events=1 session, reading the NDJSON stream to its
// closing result line.
func (e *serveEnv) eventsSession(ctx context.Context, data []byte) (api.SessionResult, error) {
	var res api.SessionResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+api.SessionsPath+"?"+api.ParamEvents+"=1", bytes.NewReader(data))
	if err != nil {
		return res, err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return res, client.ErrOverloaded
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("events session: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	var sl api.StreamLine
	if err := json.Unmarshal(last, &sl); err != nil {
		return res, fmt.Errorf("events session: closing line: %w", err)
	}
	if sl.Result == nil {
		return res, fmt.Errorf("events session: %s", sl.Error)
	}
	return *sl.Result, nil
}

// serveTotals is what one timed loop measured.
type serveTotals struct {
	elapsed   time.Duration
	latencies []float64 // ms, one per successful session
	events    uint64
	rejected  int
	// Shared-tier and cache counters summed over successful sessions.
	adoptions, published, gens, hits, accesses uint64
}

// loop runs the closed loop for the run's time: each caller takes the next
// pair of the deck, waits for its result and checks it; every session is an
// op.
func (e *serveEnv) loop(ctx context.Context, o opts, tr *tracer, rep *report) serveTotals {
	var next atomic.Int64
	var mu sync.Mutex
	var t serveTotals
	runtime.GC() // time the loop from a clean heap, not set-up's garbage
	start := time.Now()
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p := e.deck[int(next.Add(1)-1)%len(e.deck)]
				sp := tr.begin("session."+classNames[p.class], -1)
				t0 := time.Now()
				res, err := e.session(ctx, p)
				d := time.Since(t0)
				tr.end(sp)
				ok := err == nil && e.check(p, res)
				if !ok {
					fmt.Fprintf(os.Stderr, "serve: %s/%s session failed: %v\n", e.logs[p.log].name, classNames[p.class], err)
				}
				mu.Lock()
				rep.op(ok)
				if !ok {
					if errors.Is(err, client.ErrOverloaded) {
						t.rejected++
					}
				} else {
					t.latencies = append(t.latencies, ms(d))
					t.events += res.Events
					t.adoptions += res.Shared.Adoptions
					t.published += res.Shared.Published
					t.gens += res.ColdCreates + res.Regenerations
					t.hits += res.Hits
					t.accesses += res.Accesses
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

func runServe(ctx context.Context, o opts, rep *report) error {
	e, err := repeatSetup(rep, func() (*serveEnv, error) { return setupServe(ctx, o) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	rep.counters = e.counters
	t := e.loop(ctx, o, nil, rep)
	untraced := float64(t.events) / t.elapsed.Seconds()
	rep.set("events_per_s", untraced)
	rep.set("session_p50_ms", median(t.latencies))
	rep.set("session_p95_ms", quantile(t.latencies, 0.95))
	if !o.trace {
		return nil
	}
	n := float64(len(t.latencies))
	rep.set("server.adoptions", ratio(float64(t.adoptions), n))
	rep.set("server.published", ratio(float64(t.published), n))
	rep.set("server.adopt_ratio", ratio(float64(t.adoptions), float64(t.gens)))
	rep.set("core.hit_rate", ratio(float64(t.hits), float64(t.accesses)))
	rep.set("server.rejected", float64(t.rejected))
	reportSynthesis(rep, e.logs)

	traced := e.loop(ctx, o, newTracer(), rep)
	reportOverhead(rep, untraced, float64(traced.events)/traced.elapsed.Seconds())
	return e.layers(ctx, o, rep)
}

// layerReps is how often the layer budget times each call on each log.
const layerReps = 9

// The layer budget's calls, in the order each repetition times them.
const (
	probeDecode = iota
	probeSummarize
	probeOffline
	probeAuto
	probeAttrib
	probeServe
	probeHTTP
	probeEvents
	numProbes
)

// layers is the layer budget of one served session: every call is timed on
// the same bytes and configuration (capfrac 0.5), layerReps times per log.
// A layer's cost is the median, over the repetitions, of the difference
// between a call that includes it and one that does not, averaged over the
// logs.
func (e *serveEnv) layers(ctx context.Context, o opts, rep *report) error {
	reps := layerReps
	if o.smoke {
		reps = 1
	}
	costs := make(map[string][]float64)
	add := func(name string, v float64) { costs[name] = append(costs[name], v) }
	for li, l := range e.logs {
		var res api.SessionResult
		probes := [numProbes]func() (time.Duration, error){
			probeDecode:    func() (time.Duration, error) { return decodeLog(l.data) },
			probeSummarize: func() (time.Duration, error) { return summarizeLog(l.data) },
			probeOffline: func() (time.Duration, error) {
				return timeIt(func() (err error) { res, err = server.OfflineReplay(server.SessionConfig{}, nil, l.data); return err })
			},
			probeAuto: func() (time.Duration, error) {
				return timeIt(func() error { _, err := server.OfflineReplay(offlineConfig(classAuto, 0), nil, l.data); return err })
			},
			probeAttrib: func() (time.Duration, error) {
				return timeIt(func() error { _, err := server.OfflineReplay(offlineConfig(classAttrib, 0), nil, l.data); return err })
			},
			probeServe: func() (time.Duration, error) {
				return timeIt(func() error { _, err := e.srv.ServeSession(server.SessionConfig{}, l.data); return err })
			},
			probeHTTP: func() (time.Duration, error) {
				return timeIt(func() error { _, err := e.session(ctx, pair{li, classBuffered}); return err })
			},
			probeEvents: func() (time.Duration, error) {
				return timeIt(func() error { _, err := e.session(ctx, pair{li, classEvents}); return err })
			},
		}
		var t [numProbes][]float64
		for i := 0; i < reps; i++ {
			for p, fn := range probes {
				// Each call starts from a clean heap, so none pays for the
				// garbage of the one before it.
				runtime.GC()
				d, err := fn()
				if err != nil {
					return err
				}
				t[p] = append(t[p], d.Seconds())
			}
		}
		// diff is the median paired difference between two probes.
		diff := func(a, b int) float64 {
			d := make([]float64, reps)
			for i := range d {
				d[i] = t[a][i] - t[b][i]
			}
			return median(d)
		}
		dec, sum := median(t[probeDecode]), median(t[probeSummarize])
		replay := median(t[probeOffline]) - dec - sum
		add("tracelog.decode_s", dec)
		add("tracelog.decode_mb_per_s", float64(len(l.data))/1e6/dec)
		add("tracelog.summarize_s", sum)
		add("sim.replay_s", replay)
		add("sim.replay_events_per_s", float64(res.Events)/replay)
		add("core.selector_s", diff(probeAuto, probeOffline))
		add("attrib.ledger_s", diff(probeAttrib, probeOffline))
		add("server.hooks_s", diff(probeServe, probeOffline))
		add("server.http_s", diff(probeHTTP, probeServe))
		add("server.observed_s", diff(probeEvents, probeHTTP))

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if _, err := server.OfflineReplay(server.SessionConfig{}, nil, l.data); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		add("sim.alloc_bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(res.Events))
		enc, dec2, err := apiCodecs(res)
		if err != nil {
			return err
		}
		add("api.encode_s", enc)
		add("api.decode_s", dec2)
	}
	for name, xs := range costs {
		rep.set(name, mean(xs))
	}
	return nil
}

// summarizeLog decodes a log, then times the incremental summarizer over
// its blocks.
func summarizeLog(data []byte) (time.Duration, error) {
	lr, err := tracelog.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var blocks []*tracelog.EventBlock
	defer func() {
		for _, b := range blocks {
			tracelog.PutBlock(b)
		}
	}()
	for {
		b := tracelog.GetBlock()
		blocks = append(blocks, b)
		err := lr.NextBlock(b)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	start := time.Now()
	z := tracelog.NewSummarizer(lr.Header())
	for _, b := range blocks {
		z.AddBlock(b)
	}
	_ = z.Summary()
	return time.Since(start), nil
}

// apiCodecRounds is how many times the result codecs run per log; one call
// takes microseconds.
const apiCodecRounds = 2000

// apiCodecs times one result's JSON and binary encodings, and decoding
// them back, per session (one of each).
func apiCodecs(res api.SessionResult) (encode, decode float64, err error) {
	var js, bin []byte
	start := time.Now()
	for i := 0; i < apiCodecRounds; i++ {
		if js, err = json.Marshal(res); err != nil {
			return 0, 0, err
		}
		if bin, err = res.MarshalBinary(); err != nil {
			return 0, 0, err
		}
	}
	encode = time.Since(start).Seconds() / apiCodecRounds
	start = time.Now()
	for i := 0; i < apiCodecRounds; i++ {
		var a, b api.SessionResult
		if err = json.Unmarshal(js, &a); err != nil {
			return 0, 0, err
		}
		if err = b.UnmarshalBinary(bin); err != nil {
			return 0, 0, err
		}
		if a != res || b != res {
			return 0, 0, errors.New("api: result does not survive an encode/decode round trip")
		}
	}
	decode = time.Since(start).Seconds() / apiCodecRounds
	return encode, decode, nil
}
