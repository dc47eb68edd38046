package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/stats"
	"repro/internal/tracelog"
)

// update rewrites testdata/engine_golden.json from the current build instead
// of checking against it. Record only from a commit whose outputs are trusted.
var update = flag.Bool("update", false, "rewrite testdata/engine_golden.json")

// goldenScale keeps every pinned run to a fraction of a second.
const goldenScale = 0.01

// resumeAt is where the resumed gzip collection stops its first Run call; it
// falls mid-run, well inside gzip's block count at goldenScale.
const resumeAt = 12345

// TestEngineGolden pins the engine's output bytes to recorded digests: the
// collection configuration (event log plus lifetime tracker) on gzip and
// solitaire, on a four-thread gzip whose driver time-slices its walks, and a
// three-process round-robin over one shared persistent tier set up as the
// shared-vs-isolated experiment's shared arm. A gzip collection stopped at
// resumeAt and resumed on the same driver must reproduce the uninterrupted
// bytes.
func TestEngineGolden(t *testing.T) {
	got := make(map[string]string)
	gzip, _ := ByName("gzip")
	gzip = gzip.Scaled(goldenScale)
	solitaire, _ := ByName("solitaire")
	solitaire = solitaire.Scaled(goldenScale)
	threaded := gzip
	threaded.Threads = 4

	collectGolden(t, got, "collect/gzip", gzip, 0)
	solitaireLog := collectGolden(t, got, "collect/solitaire", solitaire, 0)
	collectGolden(t, got, "collect/gzip-threads4", threaded, 0)

	resumed := make(map[string]string)
	collectGolden(t, resumed, "collect/gzip", gzip, resumeAt)
	for k, v := range resumed {
		if got[k] != v {
			t.Errorf("%s: resumed run digest %s, uninterrupted %s", k, v, got[k])
		}
	}

	h, events, err := tracelog.ReadAll(bytes.NewReader(solitaireLog))
	if err != nil {
		t.Fatal(err)
	}
	roundRobinGolden(t, got, "roundrobin/solitaire", solitaire, tracelog.Summarize(h, events).MaxLiveBytes/2)

	path := filepath.Join("testdata", "engine_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d outputs hashed, %d recorded", len(got), len(want))
	}
}

// collectGolden synthesizes p and collects it, as collect does, and records
// the digests of the log bytes, the run statistics and the lifetime results
// under prefix. It returns the log bytes.
func collectGolden(t *testing.T, got map[string]string, prefix string, p Profile, stopAt uint64) []byte {
	t.Helper()
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	c := collect(t, b, b.NewDriver(), stopAt)
	got[prefix+"/log"] = digest(c.log)
	got[prefix+"/stats"] = digest([]byte(fmt.Sprintf("%+v", c.stats)))
	got[prefix+"/lifetimes"] = digest(c.lifetimes)
	return c.log
}

// collection is what a collection pass leaves: the event log bytes, the run
// statistics and a rendering of the lifetime results.
type collection struct {
	log, lifetimes []byte
	stats          dbt.RunStats
}

// collect runs g over b's image under an unbounded cache with a log and a
// lifetime tracker attached, as a collection pass does, then checks the
// link table's and the manager's invariants. A nonzero stopAt splits the
// run into Run(g, stopAt) and Run(g, 0) on one engine and guest.
func collect(t testing.TB, b *Bench, g dbt.Guest, stopAt uint64) collection {
	t.Helper()
	p := b.Profile
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: p.Name, DurationMicros: p.DurationMicros()})
	if err != nil {
		t.Fatal(err)
	}
	lt := stats.NewLifetimes()
	mgr := core.NewUnified(1<<40, nil, nil)
	eng, err := dbt.New(b.Image, dbt.Config{Manager: mgr, Log: w, Lifetimes: lt})
	if err != nil {
		t.Fatal(err)
	}
	if stopAt != 0 {
		if err := eng.Run(g, stopAt); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Blocks != stopAt {
			t.Fatalf("%s: first Run stopped after %d blocks, want %d", p.Name, st.Blocks, stopAt)
		}
	}
	if err := eng.Run(g, 0); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, eng, mgr)
	st := eng.Stats()
	end := float64(st.EndTime)
	short, mid, long := lt.Fractions(end, 0.2, 0.8)
	var life bytes.Buffer
	fmt.Fprintf(&life, "len %d\nfractions %x %x %x\nhistogram", lt.Len(),
		math.Float64bits(short), math.Float64bits(mid), math.Float64bits(long))
	for _, c := range lt.Histogram(end, 10).Counts {
		fmt.Fprintf(&life, " %d", c)
	}
	return collection{log: buf.Bytes(), lifetimes: life.Bytes(), stats: st}
}

// checkInvariants checks a finished process's link table and its manager.
func checkInvariants(t testing.TB, proc *dbt.Process, mgr *core.Graph) {
	t.Helper()
	if err := proc.Links().CheckInvariants(); err != nil {
		t.Fatalf("process %d links: %v", proc.ID(), err)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatalf("process %d manager: %v", proc.ID(), err)
	}
}

// roundRobinGolden runs three processes of p round-robin, as roundRobin
// does with a 64-block quantum, and records each process's log and run
// statistics digests under prefix.
func roundRobinGolden(t *testing.T, got map[string]string, prefix string, p Profile, capacity uint64) {
	t.Helper()
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	var adopted, unmapped uint64
	for i, proc := range roundRobin(t, b, capacity, 64, nil) {
		adopted += proc.stats.SharedAdopted
		unmapped += proc.stats.UnmappedTraces
		got[fmt.Sprintf("%s/proc%d/log", prefix, i)] = digest(proc.log)
		got[fmt.Sprintf("%s/proc%d/stats", prefix, i)] = digest([]byte(fmt.Sprintf("%+v", proc.stats)))
	}
	if adopted == 0 || unmapped == 0 {
		t.Errorf("%s: %d adoptions and %d unmapped traces, want both nonzero", prefix, adopted, unmapped)
	}
}

// roundRobin runs three processes of b round-robin over one shared
// persistent tier, each writing its own log, and returns each process's log
// bytes and run statistics (lifetimes is unset). capacity is each process's
// cache size; the tiers are laid out as the shared-vs-isolated experiment's
// shared arm lays them out. Non-nil cuts wrap every driver in a cutGuest.
// After the run it checks every process's invariants and the shared tier's.
func roundRobin(t testing.TB, b *Bench, capacity uint64, quantum int, cuts []byte) []collection {
	t.Helper()
	const procs = 3
	p := b.Profile
	cfg := core.Layout451045Threshold1(capacity)
	sp := core.NewSharedPersistent(uint64(procs)*uint64(float64(capacity)*cfg.PersistentFrac), nil, nil)
	sys := dbt.NewSystem(sp)
	bufs := make([]*bytes.Buffer, procs)
	mgrs := make([]*core.Graph, procs)
	guests := make([]dbt.Guest, procs)
	for i := 0; i < procs; i++ {
		mgr, err := core.NewGraphShared(cfg.GraphSpec(), sp, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		mgrs[i] = mgr
		bufs[i] = &bytes.Buffer{}
		w, err := tracelog.NewWriter(bufs[i], tracelog.Header{Benchmark: p.Name, DurationMicros: p.DurationMicros(), Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.NewProcess(i, b.Image, dbt.Config{Manager: mgr, Log: w}); err != nil {
			t.Fatal(err)
		}
		guests[i] = b.NewDriverProc(i)
		if cuts != nil {
			guests[i] = &cutGuest{Guest: guests[i], cuts: cuts}
		}
	}
	if err := sys.RunRoundRobin(guests, quantum, b.TotalBudget()/(2*procs), 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatalf("shared tier: %v", err)
	}
	out := make([]collection, procs)
	for i, proc := range sys.Procs() {
		checkInvariants(t, proc, mgrs[i])
		out[i] = collection{log: bufs[i].Bytes(), stats: proc.Stats()}
	}
	return out
}

// cutGuest caps each run of the guest it wraps at the next of its cut
// lengths, 1 + cuts[i], cycling through cuts.
type cutGuest struct {
	dbt.Guest
	cuts []byte
	i    int
}

// Next implements dbt.Guest.
func (c *cutGuest) Next(st *dbt.Step, max int) error {
	if len(c.cuts) > 0 {
		max = min(max, 1+int(c.cuts[c.i%len(c.cuts)]))
		c.i++
	}
	return c.Guest.Next(st, max)
}

// FuzzStepCuts checks that where a guest's execution is cut into runs
// changes nothing: with every run capped at lengths taken from the input
// (1 included), a collection's log bytes, run statistics and lifetime
// results must equal the uncut collection's, on a single-thread and a
// four-thread driver, and so must every process's log and statistics in a
// three-process round robin with a fuzzed quantum.
func FuzzStepCuts(f *testing.F) {
	f.Add([]byte{0}, uint8(63))
	f.Add([]byte{5, 0, 255, 29, 1}, uint8(0))
	f.Add([]byte{119, 2, 30}, uint8(16))
	single := tiny()
	threaded := tiny()
	threaded.Threads = 4
	var benches []*Bench
	var wants []collection
	for _, p := range []Profile{single, threaded} {
		b, err := Synthesize(p)
		if err != nil {
			f.Fatal(err)
		}
		benches = append(benches, b)
		wants = append(wants, collect(f, b, b.NewDriver(), 0))
	}
	h, events, err := tracelog.ReadAll(bytes.NewReader(wants[0].log))
	if err != nil {
		f.Fatal(err)
	}
	capacity := tracelog.Summarize(h, events).MaxLiveBytes / 2
	uncut := make(map[int][]collection) // uncut round robins by quantum
	f.Fuzz(func(t *testing.T, cuts []byte, quantum uint8) {
		for i, b := range benches {
			got := collect(t, b, &cutGuest{Guest: b.NewDriver(), cuts: cuts}, 0)
			if !bytes.Equal(got.log, wants[i].log) || got.stats != wants[i].stats || !bytes.Equal(got.lifetimes, wants[i].lifetimes) {
				t.Fatalf("threads %d: cut collection differs\ncut:   %+v\nuncut: %+v", b.Profile.Threads, got.stats, wants[i].stats)
			}
		}
		q := 1 + int(quantum)
		want, ok := uncut[q]
		if !ok {
			want = roundRobin(t, benches[0], capacity, q, nil)
			uncut[q] = want
		}
		for i, got := range roundRobin(t, benches[0], capacity, q, cuts) {
			if !bytes.Equal(got.log, want[i].log) || got.stats != want[i].stats {
				t.Fatalf("quantum %d, proc %d: cut round robin differs\ncut:   %+v\nuncut: %+v", q, i, got.stats, want[i].stats)
			}
		}
	})
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
