package core

import (
	"testing"

	"repro/internal/attrib"
	"repro/internal/codecache"
	"repro/internal/obs"
)

// TestMissChargeUnmapSupersession is the white-box regression for the old
// diedFrom leak: the controller used to record a capacity death and keep
// charging it even after the whole module was unmapped. With the ledger, the
// unmap supersedes the unclaimed death, so the miss is unmap-forced and
// missFrom stays untouched.
func TestMissChargeUnmapSupersession(t *testing.T) {
	g, c := pressureGraph(t)
	lvl := g.tiers[1].level

	// Capacity death, then the module disappears, then the trace re-heats.
	g.led.Note(&obs.Event{Kind: obs.KindEvict, Trace: 7, Module: 3, Size: 64, From: lvl})
	g.led.NoteModuleUnmap(3)
	g.noteMiss(7)
	if c.missFrom[1] != 0 {
		t.Fatalf("controller charged a module-unmapped death: missFrom[1]=%d, want 0", c.missFrom[1])
	}

	// The same death without the unmap is chargeable — the signal survives.
	g.led.Note(&obs.Event{Kind: obs.KindEvict, Trace: 8, Module: 3, Size: 64, From: lvl})
	g.noteMiss(8)
	if c.missFrom[1] != 1 {
		t.Fatalf("controller missed a live capacity death: missFrom[1]=%d, want 1", c.missFrom[1])
	}
}

// TestGraphLedgerConservation drives a full-ledger graph through eviction
// churn and a module unmap and requires exact cause conservation, a regen
// count equal to the observed misses, and a nonzero unmap-forced total.
func TestGraphLedgerConservation(t *testing.T) {
	spec, err := ParseTierSpec("30-30-40@2", 4000)
	if err != nil {
		t.Fatal(err)
	}
	spec.Attrib = &attrib.Config{Epoch: 256}
	g, err := NewGraph(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var misses uint64
	touch := func(id uint64, module uint16) {
		if !g.Access(id) {
			misses++
			if err := g.Insert(codecache.Fragment{ID: id, Size: 100, Module: module}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 6000; i++ {
		touch(uint64(1+i%40), uint16(i%40%5))
		if i%8 == 7 {
			touch(uint64(1000+i), 9) // cold intruders force eviction churn
		}
		if i == 3000 {
			g.DeleteModule(2)
		}
	}
	led := g.Ledger()
	if led == nil {
		t.Fatal("graph with Attrib config exposes no ledger")
	}
	snap := led.Snapshot()
	if !snap.Conserved() {
		t.Fatalf("conservation violated: %d cause counts != %d regens", snap.RegenCauses(), snap.Regens)
	}
	if snap.Regens != misses {
		t.Fatalf("ledger classified %d regens, graph saw %d misses", snap.Regens, misses)
	}
	if snap.Totals[obs.ReasonUnmapForced] == 0 {
		t.Fatal("module unmap mid-churn produced no unmap-forced misses")
	}
	if snap.Totals[obs.ReasonCapacity] == 0 {
		t.Fatal("eviction churn produced no capacity misses")
	}
}

// TestAdaptiveLedgerIsLight: an adaptive graph without an Attrib config runs
// the state machine in light mode — the controller gets its charge signal but
// no aggregation is exposed and no events are requested.
func TestAdaptiveLedgerIsLight(t *testing.T) {
	g, _ := pressureGraph(t)
	if g.led == nil {
		t.Fatal("adaptive graph has no light ledger")
	}
	if !g.led.Light() {
		t.Fatal("adaptive-only graph attached a full ledger")
	}
	if g.Ledger() != nil {
		t.Fatal("light ledger must not be exposed via Ledger()")
	}
	if g.led.EmitEvents() {
		t.Fatal("light ledger requested event emission")
	}
}

// TestStaticGraphHasNoLedger: no Attrib, no Adaptive — zero overhead.
func TestStaticGraphHasNoLedger(t *testing.T) {
	g, err := NewGraph(UnifiedSpec(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.led != nil || g.Ledger() != nil {
		t.Fatal("static graph attached a ledger")
	}
}
