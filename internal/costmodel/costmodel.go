// Package costmodel implements Table 2 of the paper: the instruction-count
// overhead of every dynamic-optimizer event, measured by the authors on a
// Pentium 4 with PAPI and fitted to trace size. The evaluation (Figure 11)
// weighs cache-management decisions by these costs.
package costmodel

import "math"

// Model holds the fitted overhead formulas. DefaultModel reproduces Table 2
// exactly, and it is the model every run charges; TestPerturbedModel checks
// that each field feeds through to the formulas.
type Model struct {
	// GenCoeff and GenExp parameterize trace generation:
	// GenCoeff * size^GenExp instructions.
	GenCoeff float64
	GenExp   float64
	// ContextSwitch is the flat cost of one DynamoRIO context switch.
	ContextSwitch float64
	// EvictCoeff/EvictConst parameterize eviction: EvictCoeff*size + EvictConst.
	EvictCoeff float64
	EvictConst float64
	// PromoteCoeff/PromoteConst parameterize promotion (relocating a trace
	// to another cache): PromoteCoeff*size + PromoteConst.
	PromoteCoeff float64
	PromoteConst float64
}

// DefaultModel is Table 2 of the paper.
var DefaultModel = Model{
	GenCoeff:      865,
	GenExp:        0.8,
	ContextSwitch: 25,
	EvictCoeff:    2.75,
	EvictConst:    2650,
	PromoteCoeff:  22,
	PromoteConst:  8030,
}

// MedianTraceBytes is the median trace size across all benchmarks reported
// by the paper, used for its worked example (§6.2).
const MedianTraceBytes = 242

// TraceGen returns the instruction cost of generating a trace of the given
// size in bytes: 865 * size^0.8 for the default model.
func (m Model) TraceGen(sizeBytes int) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	return m.GenCoeff * math.Pow(float64(sizeBytes), m.GenExp)
}

// Evict returns the instruction cost of evicting a trace of the given size:
// 2.75*size + 2650 for the default model.
func (m Model) Evict(sizeBytes int) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	return m.EvictCoeff*float64(sizeBytes) + m.EvictConst
}

// Promote returns the instruction cost of promoting (relocating) a trace of
// the given size to another cache: 22*size + 8030 for the default model.
func (m Model) Promote(sizeBytes int) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	return m.PromoteCoeff*float64(sizeBytes) + m.PromoteConst
}

// MissCost returns the instruction cost of one conflict miss in the trace
// cache: two context switches, one trace regeneration, and one basic-block
// to trace-cache copy (same cost as a promotion). The paper quotes
// approximately 85,000 instructions for the median 242-byte trace.
func (m Model) MissCost(sizeBytes int) float64 {
	return 2*m.ContextSwitch + m.TraceGen(sizeBytes) + m.Promote(sizeBytes)
}

// Accum aggregates the overhead instructions charged to one simulated run.
type Accum struct {
	Model Model

	TraceGens       uint64
	TraceGenCost    float64
	ContextSwitches uint64
	Evictions       uint64
	EvictionCost    float64
	Promotions      uint64
	PromotionCost   float64

	// genMemo caches Model.TraceGen per size. Regenerations dominate the
	// charges on a served replay and draw from a small set of trace sizes,
	// while size^0.8 costs more than the rest of the charge combined. The
	// memo is derived state: identical charge sequences build identical
	// memos, so value comparisons of equivalent accumulators still agree.
	genMemo []float64
}

// genMemoLimit bounds the memo; charges for larger traces fall back to the
// direct formula.
const genMemoLimit = 1 << 12

// traceGen is Model.TraceGen through the memo.
func (a *Accum) traceGen(sizeBytes int) float64 {
	if sizeBytes <= 0 || sizeBytes >= genMemoLimit {
		return a.Model.TraceGen(sizeBytes)
	}
	if sizeBytes >= len(a.genMemo) {
		n := len(a.genMemo)
		if n == 0 {
			n = 256
		}
		for n <= sizeBytes {
			n *= 2
		}
		grown := make([]float64, n)
		copy(grown, a.genMemo)
		a.genMemo = grown
	}
	c := a.genMemo[sizeBytes]
	if c == 0 {
		c = a.Model.TraceGen(sizeBytes)
		a.genMemo[sizeBytes] = c
	}
	return c
}

// NewAccum returns an accumulator using the given model.
func NewAccum(m Model) *Accum { return &Accum{Model: m} }

// Reset clears the accumulator for reuse under the given model, so pooled
// accumulators start every run from the NewAccum state.
func (a *Accum) Reset(m Model) { *a = Accum{Model: m} }

// ChargeTraceGen records one trace generation (initial creation or
// regeneration after a miss) plus the two context switches that bracket it.
func (a *Accum) ChargeTraceGen(sizeBytes int) {
	a.TraceGens++
	a.TraceGenCost += a.traceGen(sizeBytes)
	a.ContextSwitches += 2
}

// ChargeEviction records one trace eviction.
func (a *Accum) ChargeEviction(sizeBytes int) {
	a.Evictions++
	a.EvictionCost += a.Model.Evict(sizeBytes)
}

// ChargePromotion records one inter-cache trace promotion.
func (a *Accum) ChargePromotion(sizeBytes int) {
	a.Promotions++
	a.PromotionCost += a.Model.Promote(sizeBytes)
}

// Total returns the total overhead instructions charged.
func (a *Accum) Total() float64 {
	return a.TraceGenCost +
		float64(a.ContextSwitches)*a.Model.ContextSwitch +
		a.EvictionCost +
		a.PromotionCost
}

// OverheadRatio implements Equation 3 of the paper: the ratio of the
// generational configuration's overhead to the unified cache's overhead.
func OverheadRatio(generational, unified *Accum) float64 {
	u := unified.Total()
	if u == 0 {
		return 1
	}
	return generational.Total() / u
}
