// Served-ingest benchmarks: the decode→replay pipeline of a gencached
// session, measured from wire bytes to final counters in the service's
// default mode (capfrac: the cache is sized from the log's unbounded peak,
// so the body is consumed in full before the replay finishes). Two
// implementations of the same computation are compared:
//
//   - Step: the pre-kernel served path, reproduced faithfully from the old
//     session handler — tracelog.ReadAll materializes the whole log as an
//     []Event (decoding through the per-event Reader.Next), Summarize
//     re-scans it to size the cache, and a per-event session wrapper
//     replays it: a Result snapshot before and after every access (the old
//     shared-tier interplay), a duplicate identity map, and a replay
//     progress observer attached whether or not anyone listens.
//   - Block: the batched kernel the server now runs — Reader.NextBlock into
//     pooled struct-of-arrays blocks, the incremental Summarizer folding
//     each block as it decodes, Replayer.StepBlock draining access runs
//     through the manager's batched entry point, shared-tier interplay via
//     sim.Hooks.
//
// TestServePathsAgree pins both to the same counters, so the benchmarks
// compare two shapes of one computation (on a 1-core host, 2026-08-08, the
// kernel ran 5.92x the per-event path's events/sec). The Parallel variants
// model concurrent sessions (one private replay per goroutine, as in the
// server).
package repro_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracelog"
)

// serveCapFrac is the service's default capacity fraction (the paper's
// operating point), applied by both measured paths exactly as the session
// handler applies it.
const serveCapFrac = 0.5

// buildServeLog writes a served-workload log in the version-2 multi-process
// framing the service's real clients produce: a hot working set that stays
// resident (the paper's server workloads re-execute a small core of traces),
// a cold tail that churns, and periodic module unmaps that force deletions.
// Returns the encoded bytes and the event count.
func buildServeLog(tb testing.TB) ([]byte, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	const procs = 4
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: "serve-bench", DurationMicros: 1000, Procs: procs})
	if err != nil {
		tb.Fatal(err)
	}
	var clock uint64
	nEvents := 0
	emit := func(e tracelog.Event) {
		clock++
		e.Time = clock
		e.Proc = nEvents % procs
		if err := w.Write(e); err != nil {
			tb.Fatal(err)
		}
		nEvents++
	}
	const nMods = 8
	nextID := uint64(1)
	var live []uint64
	modOf := make(map[uint64]uint16)
	create := func(mod uint16) {
		id := nextID
		nextID++
		size := uint32(128 + rng.Intn(384))
		emit(tracelog.Event{Kind: tracelog.KindCreate, Trace: id, Size: size, Module: mod, Head: 0x1000 * id})
		live = append(live, id)
		modOf[id] = mod
	}
	// Module 0 holds the hot working set and is never unmapped; the cold
	// tail spreads over the remaining modules.
	const hotSet = 64
	for i := 0; i < hotSet; i++ {
		create(0)
	}
	for i := 0; i < 56*nMods; i++ {
		create(uint16(1 + i%(nMods-1)))
	}
	for r := 0; r < 400; r++ {
		for k := 0; k < 256; k++ {
			var id uint64
			if rng.Intn(100) > 0 {
				id = live[rng.Intn(hotSet)] // hot core: ~99% of accesses
			} else {
				id = live[rng.Intn(len(live))]
			}
			emit(tracelog.Event{Kind: tracelog.KindAccess, Trace: id})
		}
		if r%37 == 17 {
			mod := uint16(1 + rng.Intn(nMods-1))
			emit(tracelog.Event{Kind: tracelog.KindUnmap, Module: mod})
			kept := live[:0]
			for _, id := range live {
				if modOf[id] != mod {
					kept = append(kept, id)
				}
			}
			live = kept
			for i := 0; i < 32; i++ {
				create(mod)
			}
		}
	}
	emit(tracelog.Event{Kind: tracelog.KindEnd})
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), nEvents
}

// serveMgr builds the session's default manager shape (generational,
// 45-10-45, promote on access) over the given capacity, with an extra
// observer standing in for the server's counter/policy/session observer
// chain — both paths carry it, as both the old and new handlers do.
func serveMgr(tb testing.TB, capacity uint64, acc *costmodel.Accum, extra obs.Observer) core.Manager {
	tb.Helper()
	mgr, err := core.NewGraph(core.Config{
		TotalCapacity: capacity,
		NurseryFrac:   0.45, ProbationFrac: 0.10, PersistentFrac: 0.45,
		PromoteThreshold: 1, PromoteOnAccess: true,
	}.GraphSpec(), obs.Combine(sim.CostObserver(acc), extra))
	if err != nil {
		tb.Fatal(err)
	}
	return mgr
}

// netReader strips the bytes.Reader down to a plain io.Reader, so NewReader
// wraps it in bufio exactly as it does a network body.
type netReader struct{ r *bytes.Reader }

func (n netReader) Read(p []byte) (int, error) { return n.r.Read(p) }

// oldLocalTrace mirrors the deleted sessionRun identity record.
type oldLocalTrace struct {
	size   uint32
	module uint16
	head   uint64
}

// stubObserver stands in for one server-side observer.
func stubObserver() obs.Observer { return obs.Func(func(obs.Event) {}) }

// stubChain mirrors the manager observer chain both session handlers attach
// (event counter, policy tracker, session observer) with equal-cost stubs.
func stubChain() obs.Observer {
	return obs.Combine(stubObserver(), stubObserver(), stubObserver())
}

// replayStepPath reproduces the pre-kernel served ingest path over one log:
// ReadAll, Summarize, then the old per-event session loop.
func replayStepPath(tb testing.TB, data []byte) (sim.Result, uint64) {
	tb.Helper()
	h, events, err := tracelog.ReadAll(netReader{bytes.NewReader(data)})
	if err != nil {
		tb.Fatal(err)
	}
	sum := tracelog.Summarize(h, events)
	capacity := uint64(float64(sum.MaxLiveBytes) * serveCapFrac)
	acc := costmodel.NewAccum(costmodel.DefaultModel)
	mgr := serveMgr(tb, capacity, acc, stubChain())
	// The old path attached the session's observer to replay progress
	// unconditionally, events mode or not.
	rep := sim.NewReplayer(h.Benchmark, mgr, acc, stubObserver())
	rep.SetTotal(uint64(len(events)))
	local := make(map[uint64]oldLocalTrace)
	adoptProbes := 0
	step := func(e tracelog.Event) error {
		switch e.Kind {
		case tracelog.KindCreate, tracelog.KindAdopt:
			local[e.Trace] = oldLocalTrace{size: e.Size, module: e.Module, head: e.Head}
			adoptProbes++ // tryAdopt stub: the shared-tier probe
		case tracelog.KindAccess:
			before := rep.Result().Regenerations
			if err := rep.Step(e); err != nil {
				return err
			}
			if rep.Result().Regenerations > before {
				if lt, ok := local[e.Trace]; ok {
					_ = lt
					adoptProbes++
				}
			}
			return nil
		}
		return rep.Step(e)
	}
	for _, e := range events {
		if err := step(e); err != nil {
			tb.Fatal(err)
		}
	}
	return rep.Finish(), capacity
}

// benchHooks stands in for the server's shared-tier interplay: the kernel
// pays the interface dispatch at the same callout points.
type benchHooks struct{ registered, regenerated, unmapped int }

func (h *benchHooks) Registered(uint64, uint32, uint16, uint64)  { h.registered++ }
func (h *benchHooks) Regenerated(uint64, uint32, uint16, uint64) { h.regenerated++ }
func (h *benchHooks) Unmapped(uint16)                            { h.unmapped++ }

// replayBlockPath is the batched kernel over the same log: the loop the
// server's unified session path runs in capfrac mode — decode into pooled
// blocks once, summarizing incrementally, then replay the retained blocks.
func replayBlockPath(tb testing.TB, data []byte) (sim.Result, uint64) {
	tb.Helper()
	lr, err := tracelog.NewReader(netReader{bytes.NewReader(data)})
	if err != nil {
		tb.Fatal(err)
	}
	z := tracelog.NewSummarizer(lr.Header())
	var blocks []*tracelog.EventBlock
	defer func() {
		for _, b := range blocks {
			tracelog.PutBlock(b)
		}
	}()
	total := 0
	for {
		b := tracelog.GetBlock()
		derr := lr.NextBlock(b)
		z.AddBlock(b)
		total += b.N
		blocks = append(blocks, b)
		if errors.Is(derr, io.EOF) {
			break
		}
		if derr != nil {
			tb.Fatal(derr)
		}
	}
	capacity := uint64(float64(z.Summary().MaxLiveBytes) * serveCapFrac)
	acc := costmodel.NewAccum(costmodel.DefaultModel)
	mgr := serveMgr(tb, capacity, acc, stubChain())
	rep := sim.NewReplayer(lr.Header().Benchmark, mgr, acc, nil)
	rep.SetHooks(&benchHooks{})
	rep.SetTotal(uint64(total))
	defer rep.Recycle()
	for _, b := range blocks {
		if err := rep.StepBlock(b); err != nil {
			tb.Fatal(err)
		}
	}
	return rep.Finish(), capacity
}

// TestServePathsAgree anchors the benchmarks: both measured paths size the
// same cache and produce the same result on the bench log, so the
// comparison is between two implementations of the same computation.
func TestServePathsAgree(t *testing.T) {
	data, _ := buildServeLog(t)
	a, capA := replayStepPath(t, data)
	b, capB := replayBlockPath(t, data)
	if capA != capB {
		t.Fatalf("capacities diverge: step %d, block %d", capA, capB)
	}
	if a.Accesses != b.Accesses || a.Hits != b.Hits || a.Misses != b.Misses ||
		a.ColdCreates != b.ColdCreates || a.Regenerations != b.Regenerations ||
		a.ForcedDeletes != b.ForcedDeletes || a.Overhead.Total() != b.Overhead.Total() {
		t.Errorf("paths diverge:\n  step:  %+v\n  block: %+v", a, b)
	}
	t.Logf("bench workload: %d accesses, miss rate %.2f%%, capacity %d",
		b.Accesses, 100*b.MissRate(), capB)
}

// BenchmarkServeIngestStep is the pre-kernel served path: events/sec here
// is the "before" of the kernel's speedup.
func BenchmarkServeIngestStep(b *testing.B) {
	data, nEvents := buildServeLog(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayStepPath(b, data)
	}
	b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkServeIngestBlock is the batched kernel: the "after".
func BenchmarkServeIngestBlock(b *testing.B) {
	data, nEvents := buildServeLog(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayBlockPath(b, data)
	}
	b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkServeIngestStepParallel models concurrent sessions on the old
// path: every goroutine replays private sessions of the shared log bytes.
func BenchmarkServeIngestStepParallel(b *testing.B) {
	data, nEvents := buildServeLog(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			replayStepPath(b, data)
		}
	})
	b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkServeIngestBlockParallel models concurrent sessions on the
// batched kernel.
func BenchmarkServeIngestBlockParallel(b *testing.B) {
	data, nEvents := buildServeLog(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			replayBlockPath(b, data)
		}
	})
	b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
