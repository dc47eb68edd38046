package core

import (
	"testing"

	"repro/internal/codecache"
)

// pressureGraph builds a two-tier adaptive graph and fast-forwards its
// controller past warm-up and bootstrap, so epoch decisions run under the
// normal (damped) regime.
func pressureGraph(t *testing.T) (*Graph, *adaptiveController) {
	t.Helper()
	spec, err := ParseTierSpec("50-50", 10000)
	if err != nil {
		t.Fatal(err)
	}
	spec.Adaptive = &AdaptiveConfig{Epoch: 64}
	g, err := NewGraph(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := g.ctl
	c.warm = true
	c.warmEpochs = bootstrapEpochs + 4
	return g, c
}

// chargeTier1 fabricates one epoch window's evidence: tier 1's evictions
// caused misses, tier 0 earned no hits — propose() must pick (from=0, to=1).
func chargeTier1(c *adaptiveController) {
	c.missFrom[1] = 10
}

// TestPressureSkipsConfirmation: at pressure 0 a proposal needs two
// consecutive agreeing windows; at pressure >= 0.5 the same evidence applies
// on the first window.
func TestPressureSkipsConfirmation(t *testing.T) {
	_, damped := pressureGraph(t)
	chargeTier1(damped)
	damped.epoch()
	if damped.stats.Resizes != 0 {
		t.Fatalf("unpressured controller resized on a single window (resizes=%d)", damped.stats.Resizes)
	}
	chargeTier1(damped)
	damped.epoch()
	if damped.stats.Resizes != 1 {
		t.Fatalf("unpressured controller: resizes=%d after two agreeing windows, want 1", damped.stats.Resizes)
	}

	_, loaded := pressureGraph(t)
	loaded.setPressure(1)
	chargeTier1(loaded)
	loaded.epoch()
	if loaded.stats.Resizes != 1 {
		t.Fatalf("pressured controller: resizes=%d on first window, want 1", loaded.stats.Resizes)
	}
}

// TestPressureRespectsOscillationGuard: once the walk has bracketed its
// equilibrium (reversals >= 2), pressure must not buy back single-window
// confirmation — a loaded system cannot afford a standing resize
// oscillation.
func TestPressureRespectsOscillationGuard(t *testing.T) {
	_, c := pressureGraph(t)
	c.setPressure(1)
	c.stats.Reversals = 2
	if c.pressured() {
		t.Fatal("pressured() true despite reversals >= 2")
	}
	chargeTier1(c)
	c.epoch()
	if c.stats.Resizes != 0 {
		t.Fatalf("settled controller resized on a single pressured window (resizes=%d)", c.stats.Resizes)
	}
}

// TestPressureScalesStep: the per-shift capacity step grows with pressure,
// up to 2x at saturation, and setPressure clamps its input to [0, 1].
func TestPressureScalesStep(t *testing.T) {
	_, c := pressureGraph(t)
	base := c.stepBytes()
	c.setPressure(1)
	if got := c.stepBytes(); got != 2*base {
		t.Fatalf("stepBytes at pressure 1 = %d, want %d", got, 2*base)
	}
	c.setPressure(0.5)
	if got := c.stepBytes(); got != base+base/2 {
		t.Fatalf("stepBytes at pressure 0.5 = %d, want %d", got, base+base/2)
	}
	c.setPressure(7)
	if c.pressure != 1 {
		t.Fatalf("setPressure(7) left pressure %v, want clamp to 1", c.pressure)
	}
	c.setPressure(-3)
	if c.pressure != 0 {
		t.Fatalf("setPressure(-3) left pressure %v, want clamp to 0", c.pressure)
	}
}

// TestPressureLowersDeadband: evidence below the normal deadband floor (4
// attributed misses) still moves capacity under pressure.
func TestPressureLowersDeadband(t *testing.T) {
	_, c := pressureGraph(t)
	c.setPressure(1)
	c.missFrom[1] = 3 // below the normal floor of 4, at the pressured floor of 2
	c.epoch()
	if c.stats.Resizes != 1 {
		t.Fatalf("pressured controller ignored %d misses (resizes=%d), want floor lowered to 2", 3, c.stats.Resizes)
	}
}

// TestPressureStaticGraphNoop: SetLoadPressure on a static graph is a no-op.
func TestPressureStaticGraphNoop(t *testing.T) {
	g, err := NewGraph(UnifiedSpec(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	g.SetLoadPressure(0.9) // must not panic
	if _, ok := g.AdaptiveStats(); ok {
		t.Error("static graph reports adaptive stats")
	}
}

// TestPressureDeterminism: two identical runs that set the same pressure at
// the same access counts produce bit-identical controller stats and final
// tier capacities.
func TestPressureDeterminism(t *testing.T) {
	run := func() (AdaptiveStats, []uint64) {
		spec, err := ParseTierSpec("50-50", 4000)
		if err != nil {
			t.Fatal(err)
		}
		spec.Adaptive = &AdaptiveConfig{Epoch: 64}
		g, err := NewGraph(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		touch := func(id uint64) {
			if !g.Access(id) {
				if err := g.Insert(codecache.Fragment{ID: id, Size: 100}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 12000; i++ {
			// Pressure steps up mid-run at a fixed access count, the way the
			// day engine raises it during a flash crowd.
			switch {
			case i == 4000:
				g.SetLoadPressure(1)
			case i == 8000:
				g.SetLoadPressure(0)
			}
			touch(uint64(1 + i%40))
			if i%8 == 7 {
				touch(uint64(1000 + i)) // cold intruders force eviction churn
			}
		}
		st, ok := g.AdaptiveStats()
		if !ok {
			t.Fatal("adaptive graph reports no stats")
		}
		caps := make([]uint64, len(g.tiers))
		for i, tr := range g.tiers {
			caps[i] = tr.arena.Capacity()
		}
		return st, caps
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 {
		t.Fatalf("controller stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("tier %d capacity diverged: %d vs %d", i, c1[i], c2[i])
		}
	}
}
