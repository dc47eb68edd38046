package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// The paper's worked numbers (§6.2): for a 242-byte trace, generation costs
// 69,834 instructions, eviction 3,316, and promotion 13,354; a conflict miss
// totals approximately 85,000.
func TestPaperWorkedExample(t *testing.T) {
	m := DefaultModel
	if g := m.TraceGen(MedianTraceBytes); math.Abs(g-69834) > 100 {
		t.Errorf("TraceGen(242) = %.0f, paper says 69,834", g)
	}
	if e := m.Evict(MedianTraceBytes); math.Abs(e-3316) > 1 {
		t.Errorf("Evict(242) = %.0f, paper says 3,316", e)
	}
	if p := m.Promote(MedianTraceBytes); math.Abs(p-13354) > 1 {
		t.Errorf("Promote(242) = %.0f, paper says 13,354", p)
	}
	if c := m.MissCost(MedianTraceBytes); c < 80000 || c > 90000 {
		t.Errorf("MissCost(242) = %.0f, paper says ~85,000", c)
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	m := DefaultModel
	for _, size := range []int{0, -5} {
		if m.TraceGen(size) != 0 || m.Evict(size) != 0 || m.Promote(size) != 0 {
			t.Errorf("size %d should cost 0", size)
		}
	}
}

func TestQuickMonotonicity(t *testing.T) {
	// Property: all costs are monotonically non-decreasing in trace size.
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		m := DefaultModel
		return m.TraceGen(x) <= m.TraceGen(y) &&
			m.Evict(x) <= m.Evict(y) &&
			m.Promote(x) <= m.Promote(y) &&
			m.MissCost(x) <= m.MissCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccum(t *testing.T) {
	a := NewAccum(DefaultModel)
	a.ChargeTraceGen(242)
	a.ChargeEviction(242)
	a.ChargePromotion(242)
	if a.TraceGens != 1 || a.Evictions != 1 || a.Promotions != 1 {
		t.Fatalf("counts wrong: %+v", a)
	}
	if a.ContextSwitches != 2 {
		t.Fatalf("trace gen should charge 2 context switches, got %d", a.ContextSwitches)
	}
	want := DefaultModel.TraceGen(242) + 2*25 + DefaultModel.Evict(242) + DefaultModel.Promote(242)
	if math.Abs(a.Total()-want) > 1e-9 {
		t.Errorf("Total = %v, want %v", a.Total(), want)
	}
}

func TestOverheadRatio(t *testing.T) {
	u := NewAccum(DefaultModel)
	g := NewAccum(DefaultModel)
	if r := OverheadRatio(g, u); r != 1 {
		t.Errorf("ratio with zero unified overhead = %v, want 1", r)
	}
	u.ChargeTraceGen(242)
	u.ChargeTraceGen(242)
	g.ChargeTraceGen(242)
	r := OverheadRatio(g, u)
	if math.Abs(r-0.5) > 1e-9 {
		t.Errorf("ratio = %v, want 0.5", r)
	}
}

func TestPerturbedModel(t *testing.T) {
	// Every field must feed through to the formulas it parameterizes.
	m := DefaultModel
	m.PromoteConst = 0
	m.PromoteCoeff = 1
	if m.Promote(100) != 100 {
		t.Errorf("perturbed Promote(100) = %v", m.Promote(100))
	}
	m.ContextSwitch = 1000
	a := NewAccum(m)
	a.ChargeTraceGen(1)
	if a.Total() < 2000 {
		t.Errorf("perturbed context switch not honored: %v", a.Total())
	}
}
