// The adaptive split controller: demand-driven re-balancing of the capacity
// split between a graph's generations. The paper hand-tunes the 45-10-45
// split offline (§6, Table 2); the controller instead attributes every
// conflict miss to the tier whose eviction killed the trace — the graph's
// attribution ledger traces each miss back to that death — and at fixed
// epoch boundaries shifts one capacity step from the tier with the lowest
// hit density to the tier causing the most misses.
// Decisions run in three phases: a fast bootstrap walk right after the
// caches first fill, two-window confirmed moves afterwards, and near-frozen
// once the walk has bracketed its equilibrium (shrinking a tier eventually
// manufactures that tier's own attributed misses, so chasing the signal
// forever drives a standing oscillation). Epochs are keyed to the manager's
// own access count — never wall time — so adaptive runs stay bit-identical
// across runs and worker-pool sizes.
package core

import (
	"repro/internal/obs"
)

// AdaptiveConfig tunes a graph's split controller. The zero value of any
// field selects its default.
type AdaptiveConfig struct {
	// Epoch is the number of Access calls between controller decisions
	// (default 4096).
	Epoch uint64
	// Step is the fraction of total capacity moved per resize (default
	// 0.04).
	Step float64
	// MinFrac is the smallest fraction of total capacity any tier may be
	// shrunk to (default 0.05).
	MinFrac float64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Epoch == 0 {
		c.Epoch = 4096
	}
	if c.Step == 0 {
		c.Step = 0.04
	}
	if c.MinFrac == 0 {
		c.MinFrac = 0.05
	}
	return c
}

// AdaptiveStats counts controller activity.
type AdaptiveStats struct {
	Epochs    uint64 // controller decision points
	Resizes   uint64 // capacity shifts applied
	Reversals uint64 // shifts that undid the immediately preceding one
	Blocked   uint64 // shifts refused (MinFrac floor or pinned fragments)
}

// adaptiveController re-balances a graph's private tier capacities. It is
// ticked and fed from the graph's access path.
type adaptiveController struct {
	cfg AdaptiveConfig
	g   *Graph
	// left counts down the accesses to the next epoch boundary.
	left uint64

	// Windowed per-tier samples, reset every epoch. Indexed by private tier
	// position. hits is fed by noteHit from Graph.Access. missFrom is fed
	// from Graph.noteMiss: the graph's attribution ledger (internal/attrib,
	// run in light mode) replays each miss back to the capacity eviction
	// that caused it, replacing the controller's old private diedFrom map —
	// and, unlike it, a death superseded by a module unmap is never charged.
	hits     []uint64
	missFrom []uint64
	levelIdx map[Level]int

	// warmEpochs counts epochs since the first attributed miss — the moment
	// the caches are demonstrably full enough for the split to matter. The
	// first bootstrapEpochs of that window run in bootstrap mode.
	warm       bool
	warmEpochs uint64

	// lastFrom/lastTo are the direction of the last applied shift. Once two
	// post-bootstrap shifts have each reversed their predecessor, the walk
	// has demonstrably bracketed the equilibrium, and from then on the
	// controller demands much stronger evidence before moving again. One
	// reversal is not enough: a single noisy window mid-walk can reverse a
	// step once without the split being anywhere near its destination.
	lastFrom int
	lastTo   int

	// pendFrom/pendTo hold the previous epoch's unapplied proposal: after
	// bootstrap, a shift is applied only when two consecutive windows agree
	// on it, so one noisy window cannot move capacity.
	pendFrom int
	pendTo   int

	// pressure is the current external load pressure in [0, 1], set through
	// Graph.SetLoadPressure. Under high arrival intensity the cost of running
	// a stale split for two more confirmation epochs dwarfs the churn cost of
	// a mistaken shift, so pressure at or above pressureHigh trades damping
	// for reaction speed: single-window confirmation, a lower evidence floor,
	// and proportionally larger steps. The oscillation guard still wins —
	// once the walk has bracketed its equilibrium (reversals >= 2), pressure
	// no longer bypasses confirmation, or a loaded system would stand-and-
	// oscillate exactly when it can least afford the resize churn.
	pressure float64

	stats AdaptiveStats
}

func newAdaptiveController(g *Graph, cfg AdaptiveConfig) *adaptiveController {
	cfg = cfg.withDefaults()
	return &adaptiveController{cfg: cfg, g: g, left: cfg.Epoch,
		pendFrom: -1, pendTo: -1, lastFrom: -1, lastTo: -1}
}

// bootstrapEpochs is how many epochs after warm-up run in bootstrap mode:
// no two-epoch confirmation and a lower evidence floor. The starting split
// is arbitrary, so the first moves away from it are cheap relative to
// staying wrong. The window is keyed to the first attributed miss rather
// than the first epoch because the caches take a workload-dependent number
// of epochs to fill before the split matters at all.
const bootstrapEpochs = 8

// bootstrapping reports whether the controller is in its initial fast walk
// away from the starting split.
func (c *adaptiveController) bootstrapping() bool {
	return c.warm && c.warmEpochs <= bootstrapEpochs
}

// pressureHigh is the load-pressure level at which the controller switches
// from damped to reactive decisions.
const pressureHigh = 0.5

// pressured reports whether load pressure currently buys the controller out
// of two-window confirmation. The post-bracketing oscillation guard is
// deliberately not waivable.
func (c *adaptiveController) pressured() bool {
	return c.pressure >= pressureHigh && c.stats.Reversals < 2
}

// setPressure records the external load pressure, clamped to [0, 1].
func (c *adaptiveController) setPressure(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.pressure = p
}

// bind sizes the controller's per-tier windows once the graph's tiers exist.
func (c *adaptiveController) bind(g *Graph) {
	c.hits = make([]uint64, len(g.tiers))
	c.missFrom = make([]uint64, len(g.tiers))
	c.levelIdx = make(map[Level]int, len(g.tiers))
	for i, t := range g.tiers {
		c.levelIdx[t.level] = i
	}
}

// noteHit records a hit in tier i. Called from Graph.Access on the hit
// path; per-tier hit density is the donor-selection signal.
func (c *adaptiveController) noteHit(i int) {
	c.hits[i]++
}

// tick counts one access of the graph and runs the controller at every
// Epoch-th, the deterministic epoch boundaries of the graph's access count.
func (c *adaptiveController) tick() {
	if c.left--; c.left == 0 {
		c.left = c.cfg.Epoch
		c.epoch()
	}
}

// epoch is one controller decision: shift capacity toward the tier whose
// evictions caused the most misses this window. During the post-warm-up
// bootstrap window proposals apply immediately — the walk away from the
// arbitrary starting split should finish quickly. Afterwards a proposal
// must repeat on two consecutive windows before it is applied: shrinking a
// tier eventually manufactures that tier's own attributed misses, and
// without the confirmation delay that feedback loop drives a standing
// capacity oscillation between two tiers.
func (c *adaptiveController) epoch() {
	c.stats.Epochs++
	if c.warm {
		c.warmEpochs++
	} else {
		for i := range c.missFrom {
			if c.missFrom[i] > 0 {
				c.warm = true
				c.warmEpochs = 1
				break
			}
		}
	}
	from, to := c.propose()
	confirmed := from >= 0 && to >= 0 &&
		(c.bootstrapping() || c.pressured() || (from == c.pendFrom && to == c.pendTo))
	c.pendFrom, c.pendTo = from, to
	if confirmed && from != to && c.shift(from, to) {
		if !c.bootstrapping() && from == c.lastTo && to == c.lastFrom {
			c.stats.Reversals++
		}
		c.lastFrom, c.lastTo = from, to
		c.stats.Resizes++
	}
	for i := range c.hits {
		c.hits[i], c.missFrom[i] = 0, 0
	}
}

// propose picks the donor and recipient for the next shift. The recipient
// is the tier whose evictions caused the most misses this window (it was
// too small to hold traces the program still wanted). The donor is the
// eligible tier with the lowest windowed hit density — the tier earning the
// fewest hits per byte of capacity is the one whose bytes the program will
// miss least. Ties break deterministically by tier order (recipient) and
// larger capacity (donor).
func (c *adaptiveController) propose() (from, to int) {
	from, to = -1, -1
	var maxMiss uint64
	for i := range c.g.tiers {
		if c.missFrom[i] > maxMiss {
			maxMiss, to = c.missFrom[i], i
		}
	}
	if to < 0 {
		return -1, -1 // no attributable misses: leave the split alone
	}
	delta := c.stepBytes()
	minB := c.minBytes()
	var fromHits, fromCap uint64
	for i, t := range c.g.tiers {
		if i == to || t.arena.Capacity() < minB+delta {
			continue
		}
		h, cp := c.hits[i], t.arena.Capacity()
		// Lower hits-per-byte donates: h/cp < fromHits/fromCap, cross-
		// multiplied to stay in integers (window hits and capacities are far
		// below the overflow range).
		if from < 0 || h*fromCap < fromHits*cp || (h*fromCap == fromHits*cp && cp > fromCap) {
			from, fromHits, fromCap = i, h, cp
		}
	}
	// Deadband: near the equilibrium the recipient's and donor's attributed
	// misses are comparable and a shift would only churn the caches (each
	// resize evicts live traces). Move only on a clear imbalance — accept a
	// fainter signal during bootstrap, when moving away from the arbitrary
	// starting split is worth acting on little evidence, and demand a much
	// stronger one once the walk has bracketed the equilibrium, where the
	// shrink-feedback signal would otherwise sustain a standing oscillation.
	floor := uint64(4)
	switch {
	case c.bootstrapping():
		floor = 2
	case c.stats.Reversals >= 2:
		floor = 16
	case c.pressured():
		floor = 2
	}
	if from >= 0 && (maxMiss < floor || maxMiss < 2*c.missFrom[from]) {
		return -1, -1
	}
	return from, to
}

func (c *adaptiveController) stepBytes() uint64 {
	// Pressure scales the step up to 2x: a loaded system wants to reach a
	// better split in fewer (churn-causing) resizes.
	return uint64(float64(c.g.spec.TotalCapacity) * c.cfg.Step * (1 + c.pressure))
}

func (c *adaptiveController) minBytes() uint64 {
	return uint64(float64(c.g.spec.TotalCapacity) * c.cfg.MinFrac)
}

// shift moves one capacity step from tier `from` to tier `to`. The donor
// shrinks first — its displaced traces cascade along its normal eviction
// edge — and the recipient grows by the same amount, so total capacity is
// conserved. Each resize is published with the tier's new capacity, the
// donor's first. A shrink blocked by pinned fragments or the floor refuses
// the whole shift and publishes nothing.
func (c *adaptiveController) shift(from, to int) bool {
	delta := c.stepBytes()
	if delta == 0 || from < 0 || to < 0 || from == to {
		return false
	}
	d := c.g.tiers[from]
	r := c.g.tiers[to]
	if d.arena.Capacity() < c.minBytes()+delta {
		c.stats.Blocked++
		return false
	}
	if err := d.arena.Resize(d.arena.Capacity()-delta, d.onEvict); err != nil {
		c.stats.Blocked++
		return false
	}
	c.g.emit(obs.Event{Kind: obs.KindResize, Size: d.arena.Capacity(), From: d.level, Proc: c.g.proc})
	// Growing cannot fail.
	_ = r.arena.Resize(r.arena.Capacity()+delta, nil)
	c.g.emit(obs.Event{Kind: obs.KindResize, Size: r.arena.Capacity(), From: r.level, Proc: c.g.proc})
	if c.g.sel != nil {
		// Keep the policy selector's shadow arenas byte-matched to the new
		// tier capacities.
		c.g.sel.noteResize(from, d.arena.Capacity())
		c.g.sel.noteResize(to, r.arena.Capacity())
	}
	return true
}

// AdaptiveStats returns the controller's counters; ok is false for static
// graphs.
func (g *Graph) AdaptiveStats() (AdaptiveStats, bool) {
	if g.ctl == nil {
		return AdaptiveStats{}, false
	}
	return g.ctl.stats, true
}

// SetLoadPressure feeds external arrival intensity (0 = idle, 1 = saturated)
// into the adaptive split controller; see adaptiveController.pressure for
// how it trades damping for reaction speed. Static graphs ignore it.
//
// Determinism: pressure is ordinary controller input — two runs that set the
// same pressure values at the same access counts decide identically.
func (g *Graph) SetLoadPressure(p float64) {
	if g.ctl == nil {
		return
	}
	g.ctl.setPressure(p)
}
