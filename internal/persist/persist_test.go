package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dbt"
	"repro/internal/trace"
	"repro/internal/workload"
)

// populated builds a generational manager with some traces promoted into
// the persistent cache.
func populated(t testing.TB) *core.Graph {
	t.Helper()
	g, err := core.NewGraph(core.Config{
		TotalCapacity:    3000,
		NurseryFrac:      0.3,
		ProbationFrac:    0.3,
		PersistentFrac:   0.4,
		PromoteThreshold: 1,
		PromoteOnAccess:  true,
	}.GraphSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Push traces through nursery into probation, hit them to promote.
	for id := uint64(1); id <= 12; id++ {
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100, Module: uint16(id % 3), HeadAddr: 0x1000 * id}); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 6; id++ {
		g.Access(id) // promote whatever sits in probation
	}
	if len(g.PersistentFragments()) == 0 {
		t.Fatal("no traces reached the persistent cache")
	}
	return g
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	g := populated(t)
	img := Snapshot("word", g, nil)
	if len(img.Records) == 0 || img.Benchmark != "word" {
		t.Fatalf("snapshot = %+v", img)
	}
	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != img.Benchmark || len(got.Records) != len(img.Records) {
		t.Fatalf("loaded = %+v", got)
	}
	for i := range img.Records {
		a, b := img.Records[i], got.Records[i]
		if a.ID != b.ID || a.HeadAddr != b.HeadAddr || a.Size != b.Size || a.Module != b.Module || len(a.Blocks) != len(b.Blocks) {
			t.Errorf("record %d: %+v != %+v", i, b, a)
			continue
		}
		for j := range a.Blocks {
			if a.Blocks[j] != b.Blocks[j] {
				t.Errorf("record %d block %d differs", i, j)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("short")); err == nil {
		t.Error("truncated magic accepted")
	}
	if _, err := Load(strings.NewReader("NOTTHEMAG1\nxx")); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid magic, truncated payload.
	var buf bytes.Buffer
	buf.WriteString("CCPERSIST3\n")
	buf.WriteByte(3) // claims a 3-byte name, then EOF
	if _, err := Load(&buf); err == nil {
		t.Error("truncated name accepted")
	}
	// A record count at the bound with no records behind it must fail
	// without sizing memory from the claim.
	buf.Reset()
	buf.WriteString("CCPERSIST3\n")
	putUvarint(&buf, 0)     // empty name
	putUvarint(&buf, 0)     // no spec
	putUvarint(&buf, 1<<24) // claimed records, then EOF
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Load(&buf); err == nil {
		t.Error("truncated records accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("forged record count allocated %d bytes", grew)
	}
}

func TestLoadFutureVersion(t *testing.T) {
	// A snapshot from a newer format generation is a recognizable staleness
	// condition, not corruption: callers must be able to distinguish it with
	// errors.Is and fall back to a cold start.
	_, err := Load(strings.NewReader("CCPERSIST9\npayload from the future"))
	if err == nil {
		t.Fatal("future-version snapshot accepted")
	}
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future-version error = %v, want ErrVersion", err)
	}
	// Garbage without the CCPERSIST prefix is corruption, not a version skew.
	_, err = Load(strings.NewReader("NOTACCLOG1\npayload"))
	if err == nil || errors.Is(err, ErrVersion) {
		t.Fatalf("bad-magic error = %v, want non-ErrVersion failure", err)
	}
}

func TestWarmRestoresTraces(t *testing.T) {
	g := populated(t)
	img := Snapshot("b", g, nil)
	persisted := len(img.Records)

	fresh, err := core.NewGraph(core.Layout451045Threshold1(3000).GraphSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.DefaultModel
	ws := Warm(fresh, img, nil, model.TraceGen)
	if ws.Restored != uint64(persisted) {
		t.Fatalf("restored %d of %d", ws.Restored, persisted)
	}
	if ws.SavedGen <= 0 {
		t.Error("no generation cost saved")
	}
	// Every restored trace is immediately hittable: no regeneration needed.
	for _, r := range img.Records {
		if !fresh.Access(r.ID) {
			t.Errorf("restored trace %d not resident", r.ID)
		}
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmValidatorRejects(t *testing.T) {
	g := populated(t)
	img := Snapshot("b", g, nil)
	fresh, err := core.NewGraph(core.Layout451045Threshold1(3000).GraphSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := Warm(fresh, img, func(r Record) bool { return r.Module != 0 }, nil)
	if ws.Rejected == 0 {
		t.Error("validator rejected nothing")
	}
	for _, r := range img.Records {
		if r.Module == 0 && fresh.Contains(r.ID) {
			t.Errorf("rejected trace %d was restored", r.ID)
		}
	}
}

func TestWarmOverflowRejects(t *testing.T) {
	g := populated(t)
	img := Snapshot("b", g, nil)
	// A tiny persistent cache cannot hold everything; Warm must cope.
	tiny, err := core.NewGraph(core.Config{
		TotalCapacity:    300,
		NurseryFrac:      0.34,
		ProbationFrac:    0.33,
		PersistentFrac:   0.33,
		PromoteThreshold: 1,
	}.GraphSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := Warm(tiny, img, nil, nil)
	// 99-byte persistent cache cannot hold a single 100-byte trace.
	if ws.Restored != 0 || ws.Rejected != uint64(len(img.Records)) {
		t.Errorf("warm stats = %+v", ws)
	}
	if err := tiny.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, Image{Benchmark: "empty"}); err != nil {
		t.Fatal(err)
	}
	img, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Benchmark != "empty" || len(img.Records) != 0 {
		t.Errorf("img = %+v", img)
	}
}

// TestWarmStartEndToEnd is the cross-run experiment: run a benchmark cold
// under a generational cache, snapshot its persistent cache, rebuild the
// traces against the image, preload them into a fresh engine, and run
// again. The warm run must create fewer traces and hit the preloaded ones.
func TestWarmStartEndToEnd(t *testing.T) {
	p, ok := workload.ByName("solitaire")
	if !ok {
		t.Fatal("solitaire missing")
	}
	p = p.Scaled(0.05)
	bench, err := workload.Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	capacity := uint64(256 << 10)

	runOnce := func(preloaded []*trace.Trace) (dbt.RunStats, *core.Graph, *dbt.Engine) {
		g, err := core.NewGraph(core.Layout451045Threshold1(capacity).GraphSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := dbt.New(bench.Image, dbt.Config{Manager: g})
		if err != nil {
			t.Fatal(err)
		}
		if preloaded != nil {
			if err := e.Preload(preloaded); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(bench.NewDriver(), 0); err != nil {
			t.Fatal(err)
		}
		return e.Stats(), g, e
	}

	cold, g, e := runOnce(nil)
	if cold.TracesCreated == 0 {
		t.Fatal("cold run created nothing")
	}

	img := Snapshot(p.Name, g, e.TraceByID)
	if len(img.Records) == 0 {
		t.Fatal("empty snapshot")
	}
	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, rejected := Rebuild(loaded, bench.Image)
	if len(rebuilt) == 0 {
		t.Fatalf("rebuilt 0 traces (%d rejected)", rejected)
	}
	if rejected != 0 {
		t.Errorf("rejected %d records against an unchanged image", rejected)
	}

	warm, _, _ := runOnce(rebuilt)
	saved := int64(cold.TracesCreated) - int64(warm.TracesCreated)
	if saved < int64(len(rebuilt))/2 {
		t.Errorf("warm run created %d traces vs cold %d; preloaded %d but saved only %d generations",
			warm.TracesCreated, cold.TracesCreated, len(rebuilt), saved)
	}
}

// TestRebuildRejectsStaleImage: records against a different program image
// (changed layout) must be rejected, not mis-reused.
func TestRebuildRejectsStaleImage(t *testing.T) {
	p, _ := workload.ByName("art")
	bench1, err := workload.Synthesize(p.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	q := p.Scaled(0.05)
	q.Seed = 777 // different program layout
	bench2, err := workload.Synthesize(q)
	if err != nil {
		t.Fatal(err)
	}

	g, err := core.NewGraph(core.Layout451045Threshold1(128<<10).GraphSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dbt.New(bench1.Image, dbt.Config{Manager: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(bench1.NewDriver(), 0); err != nil {
		t.Fatal(err)
	}
	img := Snapshot(p.Name, g, e.TraceByID)
	if len(img.Records) == 0 {
		t.Skip("no persistent traces to test with")
	}
	rebuilt, rejected := Rebuild(img, bench2.Image)
	if rejected == 0 {
		t.Errorf("no records rejected against a different image (rebuilt %d)", len(rebuilt))
	}
	// Whatever does rebuild must genuinely validate against bench2.
	for _, tr := range rebuilt {
		if _, ok := bench2.Image.Block(tr.Head); !ok {
			t.Errorf("rebuilt trace %d has head outside the image", tr.ID)
		}
	}
}

// TestWarmSharedRefcounts: a shared tier snapshotted from a multi-process
// run warms a fresh tier; two new processes attach to the restored traces,
// and the owner-aware refcounts drain correctly — the first process's unmap
// leaves every trace resident, the second's kills them.
func TestWarmSharedRefcounts(t *testing.T) {
	p, ok := workload.ByName("solitaire")
	if !ok {
		t.Fatal("solitaire missing")
	}
	p = p.Scaled(0.05)
	bench, err := workload.Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	capacity := uint64(256 << 10)
	cfg := core.Layout451045Threshold1(capacity)
	spCap := 2 * uint64(float64(capacity)*cfg.PersistentFrac)

	newSystem := func() (*dbt.System, *core.SharedPersistent) {
		sp := core.NewSharedPersistent(spCap, nil, nil)
		sys := dbt.NewSystem(sp)
		for proc := 0; proc < 2; proc++ {
			mgr, err := core.NewGraphShared(cfg.GraphSpec(), sp, proc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.NewProcess(proc, bench.Image, dbt.Config{Manager: mgr}); err != nil {
				t.Fatal(err)
			}
		}
		return sys, sp
	}

	// Cold multi-process run populates the shared tier.
	sys, sp := newSystem()
	guests := []dbt.Guest{bench.NewDriverProc(0), bench.NewDriverProc(1)}
	if err := sys.RunRoundRobin(guests, 64, bench.TotalBudget()/4, 0); err != nil {
		t.Fatal(err)
	}
	img := SnapshotShared(p.Name, sp, sys.TraceByID)
	if len(img.Records) == 0 {
		t.Fatal("empty shared snapshot")
	}

	// Round-trip through the on-disk format and rebuild real bodies.
	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, rejected := Rebuild(loaded, bench.Image)
	if len(rebuilt) == 0 || rejected != 0 {
		t.Fatalf("rebuilt %d traces, rejected %d against an unchanged image", len(rebuilt), rejected)
	}

	// Warm a fresh tier and attach two fresh processes to every trace.
	sys2, sp2 := newSystem()
	ws := WarmShared(sp2, loaded, nil, costmodel.DefaultModel.TraceGen)
	if ws.Restored != uint64(len(loaded.Records)) || ws.Rejected != 0 {
		t.Fatalf("warm stats = %+v, want %d restored", ws, len(loaded.Records))
	}
	if ws.SavedGen <= 0 {
		t.Error("warm start saved no generation cost")
	}
	procs := sys2.Procs()
	for _, proc := range procs {
		n, err := proc.AttachShared(rebuilt)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rebuilt) {
			t.Fatalf("proc %d attached %d of %d traces", proc.ID(), n, len(rebuilt))
		}
	}
	modules := make(map[uint16]bool)
	for _, r := range loaded.Records {
		if sp2.Owners(r.ID) != 2 {
			t.Fatalf("trace %d has %d owners after both attaches, want 2", r.ID, sp2.Owners(r.ID))
		}
		modules[r.Module] = true
	}

	// Owner-aware drain: proc 0's unmaps leave everything resident...
	for m := range modules {
		sp2.UnmapModule(0, m)
	}
	for _, r := range loaded.Records {
		if !sp2.Contains(r.ID) {
			t.Fatalf("trace %d died while proc 1 still owned it", r.ID)
		}
		if sp2.Owners(r.ID) != 1 {
			t.Fatalf("trace %d has %d owners after proc 0's unmap, want 1", r.ID, sp2.Owners(r.ID))
		}
	}
	// ...and proc 1's unmaps drain the tier.
	for m := range modules {
		sp2.UnmapModule(1, m)
	}
	for _, r := range loaded.Records {
		if sp2.Contains(r.ID) {
			t.Fatalf("trace %d survived both owners' unmaps", r.ID)
		}
	}
	if used := sp2.Used(); used != 0 {
		t.Errorf("warmed tier still holds %d bytes", used)
	}
	if err := sp2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	g := populated(t)
	img := Snapshot("word", g, nil)
	if img.Spec == nil {
		t.Fatal("snapshot did not record the graph spec")
	}
	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec == nil {
		t.Fatal("loaded image lost the graph spec")
	}
	want := g.Spec()
	spec := got.Spec.GraphSpec()
	if spec.TotalCapacity != want.TotalCapacity || len(spec.Tiers) != len(want.Tiers) {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	for i, tr := range spec.Tiers {
		w := want.Tiers[i]
		if tr.Frac != w.Frac || tr.Threshold != w.Threshold || tr.PromoteOnAccess != w.PromoteOnAccess {
			t.Fatalf("tier %d = %+v, want %+v", i, tr, w)
		}
	}
	// The round-tripped spec must build an identical manager.
	g2, err := core.NewGraph(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g2.TierCapacities(), g.TierCapacities(); len(got) != len(want) {
		t.Fatalf("tier capacities %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tier capacities %v, want %v", got, want)
			}
		}
	}
}

// TestLoadVersion1 rebuilds a version-1 byte stream (no spec block) and
// checks it still loads, with a nil Spec.
// TestLoadVersion1: the retired format generations — version 1 (traces
// only) and version 2 (a spec without policies) — are stale snapshots, not
// corruption: Load reports ErrVersion so a warm start logs and cold-starts.
func TestLoadVersion1(t *testing.T) {
	for _, magic := range []string{"CCPERSIST1\n", "CCPERSIST2\n"} {
		var buf bytes.Buffer
		buf.WriteString(magic)
		putUvarint(&buf, uint64(len("word")))
		buf.WriteString("word")
		putUvarint(&buf, 0) // v2: no spec; v1: no records
		putUvarint(&buf, 0)
		if _, err := Load(&buf); !errors.Is(err, ErrVersion) {
			t.Errorf("%q: err = %v, want ErrVersion", magic, err)
		}
	}
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// TestSnapshotCarriesPolicies: a version-3 image must round-trip per-tier
// policy specs, and a tier under online selection must persist as
// "auto:NAME" with NAME the live candidate at snapshot time, so a warm
// restart resumes the selected policy instead of restarting the race.
func TestSnapshotCarriesPolicies(t *testing.T) {
	spec := core.Config{
		TotalCapacity:    3000,
		NurseryFrac:      0.3,
		ProbationFrac:    0.3,
		PersistentFrac:   0.4,
		PromoteThreshold: 1,
		PromoteOnAccess:  true,
	}.GraphSpec()
	spec.Tiers[0].Policy = "auto:lru"
	spec.Tiers[1].Policy = "trrip"
	spec.Selector = &core.SelectorConfig{Epoch: 64}
	g, err := core.NewGraph(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 12; id++ {
		if err := g.Insert(codecache.Fragment{ID: id, Size: 100, HeadAddr: 0x1000 * id}); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 6; id++ {
		g.Access(id)
	}

	img := Snapshot("word", g, nil)
	if img.Spec == nil || len(img.Spec.Tiers) != 3 {
		t.Fatalf("spec image = %+v", img.Spec)
	}
	if !strings.HasPrefix(img.Spec.Tiers[0].Policy, "auto:") {
		t.Errorf("auto tier persisted as %q, want auto:NAME", img.Spec.Tiers[0].Policy)
	}
	if img.Spec.Tiers[1].Policy != "trrip" {
		t.Errorf("static tier persisted as %q, want trrip", img.Spec.Tiers[1].Policy)
	}

	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec == nil || len(got.Spec.Tiers) != len(img.Spec.Tiers) {
		t.Fatalf("loaded spec = %+v", got.Spec)
	}
	for i := range img.Spec.Tiers {
		if got.Spec.Tiers[i].Policy != img.Spec.Tiers[i].Policy {
			t.Errorf("tier %d policy %q != saved %q", i, got.Spec.Tiers[i].Policy, img.Spec.Tiers[i].Policy)
		}
	}
	// The loaded spec must rebuild a working graph: "auto:lru" restarts
	// selection with lru live, "trrip" stays static.
	rebuilt := got.Spec.GraphSpec()
	rebuilt.Selector = &core.SelectorConfig{Epoch: 64}
	g2, err := core.NewGraph(rebuilt, nil)
	if err != nil {
		t.Fatalf("rebuilding from loaded spec: %v", err)
	}
	if live := g2.LivePolicies(); live[0] != "lru" || live[1] != "trrip" {
		t.Errorf("rebuilt live policies = %v, want [lru trrip ...]", live)
	}
}

// FuzzLoad: Load reads bytes straight off the peer network (cluster
// bootstrap), so arbitrary input must fail cleanly — never panic or size an
// allocation from an unchecked count — and anything it accepts must save
// back to bytes that load to the same image (compared as saved bytes, since
// a fraction may decode to NaN).
func FuzzLoad(f *testing.F) {
	var seed bytes.Buffer
	if err := Save(&seed, Snapshot("b", populated(f), nil)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("CCPERSIST3\n"))
	f.Add([]byte("CCPERSIST2\n\x01b\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := Save(&once, img); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-load of a saved image: %v", err)
		}
		if err := Save(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("save/load round trip is not stable: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}
