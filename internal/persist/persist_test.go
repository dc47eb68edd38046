package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
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
	img.Modules = tableImage().Modules
	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != img.Benchmark || len(got.Records) != len(img.Records) || !reflect.DeepEqual(got.Modules, img.Modules) {
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
	buf.WriteString(magicV4)
	buf.WriteByte(3) // claims a 3-byte name, then EOF
	if _, err := Load(&buf); err == nil {
		t.Error("truncated name accepted")
	}
	// A record count at the bound with no records behind it must fail
	// without sizing memory from the claim.
	buf.Reset()
	buf.WriteString(magicV4)
	putUvarint(&buf, 0)     // empty name
	putUvarint(&buf, 0)     // no spec
	putUvarint(&buf, 0)     // no modules
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
	// The module table comes off the peer network too: its count, names and
	// IDs are checked before they size anything.
	withTable := func(table func(*bytes.Buffer)) *bytes.Buffer {
		var buf bytes.Buffer
		buf.WriteString(magicV4)
		putUvarint(&buf, 0) // empty name
		putUvarint(&buf, 0) // no spec
		table(&buf)
		putUvarint(&buf, 0) // no records
		return &buf
	}
	entry := func(buf *bytes.Buffer, id uint64, bench string) {
		putUvarint(buf, id)
		putUvarint(buf, 0)
		putUvarint(buf, uint64(len(bench)))
		buf.WriteString(bench)
	}
	if _, err := Load(withTable(func(b *bytes.Buffer) { putUvarint(b, 1); entry(b, 7, "gzip") })); err != nil {
		t.Errorf("one-entry table rejected: %v", err)
	}
	for name, table := range map[string]func(*bytes.Buffer){
		"oversized module count": func(b *bytes.Buffer) { putUvarint(b, maxModules+1) },
		"oversized module name":  func(b *bytes.Buffer) { putUvarint(b, 1); entry(b, 7, strings.Repeat("x", maxModuleName+1)) },
		"repeated module ID":     func(b *bytes.Buffer) { putUvarint(b, 2); entry(b, 7, "gzip"); entry(b, 7, "word") },
		"module ID over 16 bits": func(b *bytes.Buffer) { putUvarint(b, 1); entry(b, 1<<16, "gzip") },
		"truncated module table": func(b *bytes.Buffer) { putUvarint(b, 2); entry(b, 7, "gzip") },
	} {
		if _, err := Load(withTable(table)); err == nil {
			t.Errorf("%s accepted", name)
		}
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

// TestLoadVersion1: the retired format generations — version 1 (traces
// only), version 2 (a spec without policies) and version 3 (no module
// table) — are stale snapshots, not corruption: Load reports ErrVersion so a
// warm start logs and cold-starts.
func TestLoadVersion1(t *testing.T) {
	for _, magic := range []string{"CCPERSIST1\n", "CCPERSIST2\n", "CCPERSIST3\n"} {
		var buf bytes.Buffer
		buf.WriteString(magic)
		putUvarint(&buf, uint64(len("word")))
		buf.WriteString("word")
		putUvarint(&buf, 0) // v2, v3: no spec; v1: no records
		putUvarint(&buf, 0) // v3: no records
		if _, err := Load(&buf); !errors.Is(err, ErrVersion) {
			t.Errorf("%q: err = %v, want ErrVersion", magic, err)
		}
	}
}

// tableImage is a shared-tier-shaped image: two benchmarks reuse local
// module 0, so only the module table tells their records apart.
func tableImage() Image {
	return Image{
		Benchmark: "gencached",
		Modules: []Module{
			{ID: 1, Bench: "gzip", Local: 0},
			{ID: 2, Bench: "word", Local: 0},
			{ID: 3, Bench: "word", Local: 4},
		},
		Records: []Record{
			{ID: 10, HeadAddr: 0x40, Size: 128, Module: 1},
			{ID: 11, HeadAddr: 0x40, Size: 96, Module: 2},
			{ID: 12, HeadAddr: 0x80, Size: 64, Module: 1},
		},
	}
}

// TestFilterImageTable: FilterImage keeps exactly the module-table entries
// its kept records use, so a shard transfer names only what it ships.
func TestFilterImageTable(t *testing.T) {
	img := tableImage()
	gzip := FilterImage(img, func(r Record) bool { return r.Module == 1 })
	if want := img.Modules[:1]; !reflect.DeepEqual(gzip.Modules, want) || len(gzip.Records) != 2 {
		t.Errorf("filtered image = %+v, want the two gzip records and table %+v", gzip, want)
	}
	if none := FilterImage(img, func(Record) bool { return false }); len(none.Modules) != 0 {
		t.Errorf("empty filter kept table entries %+v", none.Modules)
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
	f.Add([]byte(magicV4))
	f.Add([]byte("CCPERSIST2\n\x01b\x00\x00"))
	var withTable bytes.Buffer
	if err := Save(&withTable, tableImage()); err != nil {
		f.Fatal(err)
	}
	f.Add(withTable.Bytes())
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
