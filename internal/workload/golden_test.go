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

// collectGolden runs p under an unbounded cache with a log and a lifetime
// tracker attached, as a collection pass does, and records the digests of
// the log bytes, the run statistics and the lifetime results under prefix.
// A nonzero stopAt splits the run into Run(g, stopAt) and Run(g, 0) on one
// engine and driver. It returns the log bytes.
func collectGolden(t *testing.T, got map[string]string, prefix string, p Profile, stopAt uint64) []byte {
	t.Helper()
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{Benchmark: p.Name, DurationMicros: p.DurationMicros()})
	if err != nil {
		t.Fatal(err)
	}
	lt := stats.NewLifetimes()
	eng, err := dbt.New(b.Image, dbt.Config{Manager: core.NewUnified(1<<40, nil, nil), Log: w, Lifetimes: lt})
	if err != nil {
		t.Fatal(err)
	}
	g := b.NewDriver()
	if stopAt != 0 {
		if err := eng.Run(g, stopAt); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Blocks != stopAt {
			t.Fatalf("%s: first Run stopped after %d blocks, want %d", prefix, st.Blocks, stopAt)
		}
	}
	if err := eng.Run(g, 0); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	end := float64(st.EndTime)
	short, mid, long := lt.Fractions(end, 0.2, 0.8)
	var life bytes.Buffer
	fmt.Fprintf(&life, "len %d\nfractions %x %x %x\nhistogram", lt.Len(),
		math.Float64bits(short), math.Float64bits(mid), math.Float64bits(long))
	for _, c := range lt.Histogram(end, 10).Counts {
		fmt.Fprintf(&life, " %d", c)
	}
	got[prefix+"/log"] = digest(buf.Bytes())
	got[prefix+"/stats"] = digest([]byte(fmt.Sprintf("%+v", st)))
	got[prefix+"/lifetimes"] = digest(life.Bytes())
	return buf.Bytes()
}

// roundRobinGolden runs three processes of p round-robin over one shared
// persistent tier, each writing its own log, and records each process's log
// and run statistics digests under prefix. capacity is each process's cache
// size; the tiers are laid out as the shared-vs-isolated experiment's shared
// arm lays them out.
func roundRobinGolden(t *testing.T, got map[string]string, prefix string, p Profile, capacity uint64) {
	t.Helper()
	const procs = 3
	b, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Layout451045Threshold1(capacity)
	sp := core.NewSharedPersistent(uint64(procs)*uint64(float64(capacity)*cfg.PersistentFrac), nil, nil)
	sys := dbt.NewSystem(sp)
	bufs := make([]*bytes.Buffer, procs)
	guests := make([]dbt.Guest, procs)
	for i := 0; i < procs; i++ {
		mgr, err := core.NewGraphShared(cfg.GraphSpec(), sp, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = &bytes.Buffer{}
		w, err := tracelog.NewWriter(bufs[i], tracelog.Header{Benchmark: p.Name, DurationMicros: p.DurationMicros(), Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.NewProcess(i, b.Image, dbt.Config{Manager: mgr, Log: w}); err != nil {
			t.Fatal(err)
		}
		guests[i] = b.NewDriverProc(i)
	}
	if err := sys.RunRoundRobin(guests, 64, b.TotalBudget()/(2*procs), 0); err != nil {
		t.Fatal(err)
	}
	var adopted, unmapped uint64
	for i, proc := range sys.Procs() {
		st := proc.Stats()
		adopted += st.SharedAdopted
		unmapped += st.UnmappedTraces
		got[fmt.Sprintf("%s/proc%d/log", prefix, i)] = digest(bufs[i].Bytes())
		got[fmt.Sprintf("%s/proc%d/stats", prefix, i)] = digest([]byte(fmt.Sprintf("%+v", st)))
	}
	if adopted == 0 || unmapped == 0 {
		t.Errorf("%s: %d adoptions and %d unmapped traces, want both nonzero", prefix, adopted, unmapped)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
