package attrib

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/idtab"
	"repro/internal/obs"
)

// op is one recorded ledger interaction, replayable against both the real
// ledger and the brute-force reference model.
type op struct {
	kind   string // "register", "insert", "evict", "promote", "unmap", "modunmap", "miss", "tick"
	id     uint64
	module uint16
	size   uint64
	level  obs.Level
	cold   bool
	n      uint64
}

func applyOps(l *Ledger, ops []op) {
	for _, o := range ops {
		switch o.kind {
		case "register":
			l.Register(o.id, o.module, o.size, o.cold)
		case "insert":
			l.Note(&obs.Event{Kind: obs.KindInsert, Trace: o.id, Module: o.module, Size: o.size, To: o.level})
		case "evict":
			l.Note(&obs.Event{Kind: obs.KindEvict, Trace: o.id, Module: o.module, Size: o.size, From: o.level})
		case "promote":
			l.Note(&obs.Event{Kind: obs.KindPromote, Trace: o.id, From: o.level, To: o.level + 1})
		case "unmap":
			l.Note(&obs.Event{Kind: obs.KindUnmap, Trace: o.id, Module: o.module, From: o.level})
		case "modunmap":
			l.NoteModuleUnmap(o.module)
		case "miss":
			l.Miss(o.id)
		case "tick":
			l.Tick(o.n)
		}
	}
}

// refTrace is the brute-force model's per-trace state: a direct, obvious
// transcription of the taxonomy in the package comment, with none of the
// ledger's per-trace-ID table.
type refTrace struct {
	module     uint16
	state      uint8 // 0 compiled, 1 resident, 2 dead
	byUnmap    bool
	promoted   bool
	deathLevel obs.Level
	deathClock uint64
	unmapGen   uint32
}

// refRun recomputes cause totals from the op log with plain maps.
func refRun(ops []op, first, final obs.Level, shared bool, epoch, reheat uint64) (totals [obs.NumReasons]uint64, regens uint64) {
	traces := make(map[uint64]*refTrace)
	modGen := make(map[uint16]uint32)
	var clock uint64
	win := reheat * epoch
	get := func(id uint64) (*refTrace, bool) {
		t, ok := traces[id]
		if !ok {
			t = &refTrace{deathLevel: obs.LevelNone}
			traces[id] = t
		}
		return t, !ok
	}
	for _, o := range ops {
		switch o.kind {
		case "register":
			t, fresh := get(o.id)
			t.module = o.module
			if o.cold && fresh {
				totals[obs.ReasonCold]++
			}
		case "insert":
			t, _ := get(o.id)
			if o.module != 0 || t.module == 0 {
				t.module = o.module
			}
			if t.state != 1 {
				t.state = 1
				t.promoted = false
				t.byUnmap = false
			}
		case "evict":
			t, _ := get(o.id)
			if o.module != 0 {
				t.module = o.module
			}
			t.state = 2
			t.byUnmap = false
			t.deathLevel = o.level
			t.deathClock = clock
			t.unmapGen = modGen[t.module]
		case "promote":
			if t, ok := traces[o.id]; ok {
				t.promoted = true
			}
		case "unmap":
			t, _ := get(o.id)
			if o.module != 0 {
				t.module = o.module
			}
			t.state = 2
			t.byUnmap = true
			t.deathLevel = o.level
			t.deathClock = clock
			t.unmapGen = modGen[t.module]
		case "modunmap":
			modGen[o.module]++
		case "tick":
			clock += o.n
		case "miss":
			t, fresh := get(o.id)
			cause := obs.ReasonCapacity
			if !fresh {
				switch t.state {
				case 2:
					if t.byUnmap || t.unmapGen != modGen[t.module] {
						cause = obs.ReasonUnmapForced
					} else if first != final && t.deathLevel == first && !t.promoted {
						cause = obs.ReasonNeverPromoted
					} else if t.deathLevel != first && t.deathLevel != final && clock-t.deathClock <= win {
						cause = obs.ReasonPrematureDemotion
					}
				case 1:
					if shared {
						cause = obs.ReasonAdoptionMiss
					}
				}
				t.state = 0
				t.byUnmap = false
				t.promoted = false
				t.deathLevel = obs.LevelNone
			}
			totals[cause]++
			regens++
		}
	}
	return totals, regens
}

// genOps builds a deterministic pseudo-random lifecycle sequence, including
// spill-range IDs, module unmaps, and every event kind.
func genOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	levels := []obs.Level{obs.LevelNursery, obs.LevelProbation, obs.LevelPersistent}
	var ops []op
	for i := 0; i < n; i++ {
		id := uint64(rng.Intn(64))
		if rng.Intn(20) == 0 {
			id += idtab.Dense // exercise the table's map
		}
		module := uint16(rng.Intn(4))
		switch rng.Intn(10) {
		case 0:
			ops = append(ops, op{kind: "register", id: id, module: module, size: 64, cold: rng.Intn(2) == 0})
		case 1, 2:
			ops = append(ops, op{kind: "insert", id: id, module: module, size: 64, level: levels[rng.Intn(3)]})
		case 3, 4:
			ops = append(ops, op{kind: "evict", id: id, level: levels[rng.Intn(3)]})
		case 5:
			ops = append(ops, op{kind: "promote", id: id, level: obs.LevelNursery})
		case 6:
			ops = append(ops, op{kind: "unmap", id: id, module: module, level: levels[rng.Intn(3)]})
		case 7:
			if rng.Intn(4) == 0 {
				ops = append(ops, op{kind: "modunmap", module: module})
			}
			ops = append(ops, op{kind: "tick", n: uint64(rng.Intn(3000))})
		case 8, 9:
			ops = append(ops, op{kind: "miss", id: id})
		}
	}
	return ops
}

// TestPropertyVsBruteForce replays random lifecycle sequences through the
// ledger and through a plain-map reference model and requires identical cause
// totals, regeneration counts, and conservation.
func TestPropertyVsBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, shared := range []bool{false, true} {
			l := New(Config{Epoch: 1024, ReheatEpochs: 1})
			l.SetShape(obs.LevelNursery, obs.LevelPersistent, shared)
			ops := genOps(seed, 2000)
			applyOps(l, ops)

			wantTotals, wantRegens := refRun(ops, obs.LevelNursery, obs.LevelPersistent, shared, 1024, 1)
			if got := l.Totals(); got != wantTotals {
				t.Fatalf("seed %d shared=%v: totals %v, reference %v", seed, shared, got, wantTotals)
			}
			if l.Regens() != wantRegens {
				t.Fatalf("seed %d shared=%v: regens %d, reference %d", seed, shared, l.Regens(), wantRegens)
			}
			snap := l.Snapshot()
			if !snap.Conserved() {
				t.Fatalf("seed %d shared=%v: conservation violated: %d causes, %d regens",
					seed, shared, snap.RegenCauses(), snap.Regens)
			}
			// Cells must fold back to the same totals.
			var cellTotals [obs.NumReasons]uint64
			for _, c := range snap.Cells {
				cellTotals[c.Cause] += c.Count
			}
			if cellTotals != wantTotals {
				t.Fatalf("seed %d shared=%v: cell totals %v, reference %v", seed, shared, cellTotals, wantTotals)
			}
		}
	}
}

// TestUnmapSupersession is the regression for the old controller's diedFrom
// leak: a capacity death followed by a module unmap must re-surface as
// unmap-forced (unchargeable), not as a capacity charge.
func TestUnmapSupersession(t *testing.T) {
	l := New(Config{})
	l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 7, Module: 3, Size: 64, To: obs.LevelNursery})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 7, Module: 3, Size: 64, From: obs.LevelProbation})
	l.NoteModuleUnmap(3)
	mi := l.Miss(7)
	if mi.Cause != obs.ReasonUnmapForced {
		t.Fatalf("cause after evict+module-unmap = %v, want unmap-forced", mi.Cause)
	}
	if mi.Charge {
		t.Fatal("superseded death must not be chargeable")
	}

	// Without the unmap the same sequence is a chargeable premature demotion.
	l2 := New(Config{})
	l2.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
	l2.Note(&obs.Event{Kind: obs.KindInsert, Trace: 7, Module: 3, Size: 64, To: obs.LevelNursery})
	l2.Note(&obs.Event{Kind: obs.KindEvict, Trace: 7, Module: 3, Size: 64, From: obs.LevelProbation})
	mi2 := l2.Miss(7)
	if mi2.Cause != obs.ReasonPrematureDemotion || !mi2.Charge {
		t.Fatalf("cause without unmap = %v charge=%v, want chargeable premature-demotion", mi2.Cause, mi2.Charge)
	}

	// A re-insert after the unmap starts a clean life: its next eviction is
	// chargeable again (generation stamps match once more).
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 7, Module: 3, Size: 64, To: obs.LevelNursery})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 7, Module: 3, Size: 64, From: obs.LevelPersistent})
	if mi := l.Miss(7); !mi.Charge || mi.Cause != obs.ReasonCapacity {
		t.Fatalf("post-unmap life: cause=%v charge=%v, want chargeable capacity", mi.Cause, mi.Charge)
	}
}

// TestDeathConsumedOnce: one death can never be charged on two misses.
func TestDeathConsumedOnce(t *testing.T) {
	l := New(Config{})
	l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 1, Module: 1, To: obs.LevelNursery})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 1, Module: 1, From: obs.LevelPersistent})
	if mi := l.Miss(1); !mi.Charge {
		t.Fatalf("first miss after death not chargeable: %+v", mi)
	}
	if mi := l.Miss(1); mi.Charge {
		t.Fatalf("second miss charged the same death: %+v", mi)
	}
}

// TestNeverPromoted: a first-generation death without a promotion is
// never-promoted; with one it is plain capacity.
func TestNeverPromoted(t *testing.T) {
	l := New(Config{})
	l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 5, Module: 2, To: obs.LevelNursery})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 5, Module: 2, From: obs.LevelNursery})
	if mi := l.Miss(5); mi.Cause != obs.ReasonNeverPromoted {
		t.Fatalf("unpromoted nursery death = %v, want never-promoted", mi.Cause)
	}
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 5, Module: 2, To: obs.LevelNursery})
	l.Note(&obs.Event{Kind: obs.KindPromote, Trace: 5, From: obs.LevelNursery, To: obs.LevelProbation})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 5, Module: 2, From: obs.LevelNursery})
	if mi := l.Miss(5); mi.Cause != obs.ReasonCapacity {
		t.Fatalf("promoted nursery death = %v, want capacity", mi.Cause)
	}
}

// TestPrematureWindow: a middle-tier death re-heated inside the window is
// premature; outside it is capacity.
func TestPrematureWindow(t *testing.T) {
	l := New(Config{Epoch: 100, ReheatEpochs: 1})
	l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 9, Module: 1, To: obs.LevelProbation})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 9, Module: 1, From: obs.LevelProbation})
	l.Tick(100)
	if mi := l.Miss(9); mi.Cause != obs.ReasonPrematureDemotion {
		t.Fatalf("re-heat at window edge = %v, want premature-demotion", mi.Cause)
	}
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 9, Module: 1, To: obs.LevelProbation})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 9, Module: 1, From: obs.LevelProbation})
	l.Tick(101)
	if mi := l.Miss(9); mi.Cause != obs.ReasonCapacity {
		t.Fatalf("re-heat past window = %v, want capacity", mi.Cause)
	}
}

// TestAdoptionMiss: with a shared final tier, a miss on a trace the ledger
// believes resident is an adoption miss; without sharing it stays capacity.
func TestAdoptionMiss(t *testing.T) {
	for _, shared := range []bool{true, false} {
		l := New(Config{})
		l.SetShape(obs.LevelNursery, obs.LevelPersistent, shared)
		l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 3, Module: 1, To: obs.LevelPersistent})
		mi := l.Miss(3)
		want := obs.ReasonCapacity
		if shared {
			want = obs.ReasonAdoptionMiss
		}
		if mi.Cause != want {
			t.Fatalf("shared=%v: resident miss = %v, want %v", shared, mi.Cause, want)
		}
	}
}

// TestReclassifyLastMiss moves a cell without breaking conservation.
func TestReclassifyLastMiss(t *testing.T) {
	l := New(Config{})
	l.SetShape(obs.LevelNursery, obs.LevelPersistent, true)
	l.Miss(11)
	if !l.ReclassifyLastMiss(11, obs.ReasonAdoptionMiss) {
		t.Fatal("reclassify refused")
	}
	if l.ReclassifyLastMiss(11, obs.ReasonAdoptionMiss) {
		t.Fatal("reclassify to the same cause must refuse")
	}
	if l.ReclassifyLastMiss(12, obs.ReasonCapacity) {
		t.Fatal("reclassify of a non-last trace must refuse")
	}
	snap := l.Snapshot()
	if !snap.Conserved() {
		t.Fatalf("conservation broken by reclassify: %d != %d", snap.RegenCauses(), snap.Regens)
	}
	if snap.Totals[obs.ReasonAdoptionMiss] != 1 || snap.Totals[obs.ReasonCapacity] != 0 {
		t.Fatalf("totals after reclassify: %v", snap.Totals)
	}
}

// TestLightMode: the light ledger answers Miss but keeps no aggregates.
func TestLightMode(t *testing.T) {
	l := New(Config{Light: true})
	l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
	l.Note(&obs.Event{Kind: obs.KindInsert, Trace: 2, Module: 1, To: obs.LevelNursery})
	l.Note(&obs.Event{Kind: obs.KindEvict, Trace: 2, Module: 1, From: obs.LevelPersistent})
	mi := l.Miss(2)
	if !mi.Charge || mi.Level != obs.LevelPersistent {
		t.Fatalf("light miss: %+v, want persistent charge", mi)
	}
	if l.EmitEvents() {
		t.Fatal("light ledger must not request event emission")
	}
	snap := l.Snapshot()
	if len(snap.Cells) != 0 {
		t.Fatalf("light ledger kept %d cells", len(snap.Cells))
	}
}

// TestReportDeterministic: the same sequence renders the same bytes, and
// aggregating snapshots in either order renders the same bytes.
func TestReportDeterministic(t *testing.T) {
	render := func() []byte {
		l := New(Config{Epoch: 512})
		l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
		applyOps(l, genOps(42, 3000))
		var buf bytes.Buffer
		l.Snapshot().WriteReport(&buf, 8)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("report differs across runs:\n%s\n---\n%s", a, b)
	}

	mk := func(seed int64) *Snapshot {
		l := New(Config{Epoch: 512})
		l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
		applyOps(l, genOps(seed, 1500))
		return l.Snapshot()
	}
	s1, s2 := mk(1), mk(2)
	var fwd, rev bytes.Buffer
	agg := NewAggregate()
	agg.Add(s1)
	agg.Add(s2)
	agg.Snapshot().WriteReport(&fwd, 0)
	agg2 := NewAggregate()
	agg2.Add(s2)
	agg2.Add(s1)
	agg2.Snapshot().WriteReport(&rev, 0)
	if !bytes.Equal(fwd.Bytes(), rev.Bytes()) {
		t.Fatalf("aggregate report depends on add order:\n%s\n---\n%s", fwd.Bytes(), rev.Bytes())
	}
}

// TestSteadyStateAllocs: the hot path (Tick + Note + Miss on warmed
// identities) allocates nothing per event.
func TestSteadyStateAllocs(t *testing.T) {
	l := New(Config{Epoch: 1 << 30})
	l.SetShape(obs.LevelNursery, obs.LevelPersistent, false)
	// Warm every identity, cell, and internal table the loop will touch.
	for id := uint64(0); id < 16; id++ {
		l.Note(&obs.Event{Kind: obs.KindInsert, Trace: id, Module: uint16(id % 4), Size: 64, To: obs.LevelNursery})
		l.Note(&obs.Event{Kind: obs.KindPromote, Trace: id, From: obs.LevelNursery, To: obs.LevelProbation})
		l.Note(&obs.Event{Kind: obs.KindEvict, Trace: id, Module: uint16(id % 4), Size: 64, From: obs.LevelProbation})
		l.Miss(id)
	}
	var id uint64
	allocs := testing.AllocsPerRun(1000, func() {
		id = (id + 1) % 16
		l.Tick(1)
		l.Note(&obs.Event{Kind: obs.KindInsert, Trace: id, Module: uint16(id % 4), Size: 64, To: obs.LevelNursery})
		l.Note(&obs.Event{Kind: obs.KindEvict, Trace: id, Module: uint16(id % 4), Size: 64, From: obs.LevelProbation})
		l.Miss(id)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ledger path allocates %.1f per event round, want 0", allocs)
	}
}
