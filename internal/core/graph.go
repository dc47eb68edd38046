// The tier graph: the generalization of the paper's hand-written managers.
// A Graph is an ordered chain of tiers (arena + local policy + level label)
// connected by eviction edges: a victim leaving tier i is offered to tier
// i+1 when the edge's predictor admits it and leaves the system otherwise;
// victims of the last tier always die. The paper's Unified baseline is a
// one-tier graph (UnifiedSpec) and its Generational design (Figure 8) is the
// stock three-tier graph with a hit-threshold gate on the probation edge
// (Config.GraphSpec); the same machinery runs N-generation chains,
// alternative promotion predictors (TRRIP-style temperature), and the
// adaptive split controller in adaptive.go.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/attrib"
	"repro/internal/codecache"
	"repro/internal/obs"
	"repro/internal/policy"
)

// ---------------------------------------------------------------------------
// Promotion predictors

// Predictor decides whether a trace leaving one tier should be promoted into
// the next tier of the graph or leave the system. Implementations must be
// deterministic functions of the fragment's bookkeeping and the tier clock.
type Predictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Admit reports whether victim v may enter the next tier. now is the
	// logical clock of the tier v is leaving.
	Admit(v *codecache.Fragment, now uint64) bool
}

// HitThreshold is the paper's promotion gate (§5.3): a victim is promoted
// when it was executed at least N times while resident in its tier. Figure
// 9's "@1" and "@10" labels are this knob.
type HitThreshold struct{ N uint64 }

// Name implements Predictor.
func (h HitThreshold) Name() string { return fmt.Sprintf("hits@%d", h.N) }

// Admit implements Predictor.
func (h HitThreshold) Admit(v *codecache.Fragment, now uint64) bool {
	return v.AccessCount >= h.N
}

// Temperature is a TRRIP-style re-reference predictor: instead of a raw hit
// count it asks whether the trace is predicted to re-reference soon — either
// it ran often enough to be hot, or it ran recently (within MaxIdle ticks of
// the tier clock). Cold traces that last ran long ago are denied even if
// they crossed the hit threshold once.
type Temperature struct {
	// Hot is the access count at or above which the trace is admitted
	// regardless of recency.
	Hot uint64
	// MaxIdle is the maximum clock distance since the last access for a
	// warm (accessed but not hot) trace to be admitted.
	MaxIdle uint64
}

// Name implements Predictor.
func (t Temperature) Name() string { return fmt.Sprintf("temp%d~%d", t.Hot, t.MaxIdle) }

// Admit implements Predictor.
func (t Temperature) Admit(v *codecache.Fragment, now uint64) bool {
	if v.AccessCount >= t.Hot {
		return true
	}
	return v.AccessCount > 0 && now-v.LastAccess <= t.MaxIdle
}

// ---------------------------------------------------------------------------
// Graph specification

// TierSpec describes one tier of a graph and the eviction edge leaving it.
type TierSpec struct {
	// Frac is this tier's share of the graph's total capacity.
	Frac float64

	// Threshold installs a HitThreshold gate on the edge to the next tier:
	// victims with fewer resident accesses die instead of promoting. 0 means
	// victims promote unconditionally. Ignored for the last tier (whose
	// victims always die) and when Predictor is set.
	Threshold uint64

	// Predictor, when non-nil, replaces the Threshold gate on the edge to
	// the next tier.
	Predictor Predictor

	// PromoteOnAccess upgrades a resident trace the moment an access makes
	// the edge's gate admit it, rather than waiting for its eviction (§5.3's
	// "each hit in the probation cache triggers an upgrade").
	PromoteOnAccess bool

	// Policy selects this tier's local policy by registry spec ("lru",
	// "trrip:hot=8"; see policy.List). The special value "auto" enables the
	// online policy selector for this tier — "auto:lru" names the starting
	// policy, e.g. when resuming from a snapshot. Empty defers to
	// GraphSpec.Local. Inside tier-layout strings the dash-free registry
	// aliases must be used (tiers are separated by '-').
	Policy string
}

// GraphSpec describes a whole tier graph. The stock shapes are built by
// UnifiedSpec and Config.GraphSpec; richer shapes (N generations, mixed
// predictors) are written directly or parsed from a CLI string by
// ParseTierSpec.
type GraphSpec struct {
	TotalCapacity uint64
	Tiers         []TierSpec

	// Local constructs the local policy for each tier; nil defaults to
	// pseudo-circular for all tiers, the paper's design.
	Local func(Level) policy.Local

	// Adaptive, when non-nil, attaches the split controller of adaptive.go:
	// tier capacities are re-balanced at deterministic epoch boundaries.
	Adaptive *AdaptiveConfig

	// Selector tunes the online policy selector for tiers whose Policy is
	// "auto"; nil applies the defaults. It is ignored when no tier opts in.
	Selector *SelectorConfig

	// Attrib, when non-nil, attaches a full attribution ledger
	// (internal/attrib): every miss is classified into a cause and
	// aggregated per module × tier × epoch × proc, readable through
	// Graph.Ledger. When nil but Adaptive is set, the graph still runs a
	// light (state-machine-only) ledger internally to feed the controller's
	// miss attribution.
	Attrib *attrib.Config
}

// Validate checks the specification. Its fraction checks are written as
// acceptances, so a NaN fraction, which compares false with everything,
// fails them.
func (s GraphSpec) Validate() error {
	if s.TotalCapacity == 0 {
		return fmt.Errorf("core: zero total capacity")
	}
	if len(s.Tiers) == 0 {
		return fmt.Errorf("core: graph needs at least one tier")
	}
	var sum float64
	for _, t := range s.Tiers {
		if !(t.Frac > 0) {
			return fmt.Errorf("core: every tier fraction must be positive")
		}
		sum += t.Frac
	}
	if !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("core: tier fractions sum to %.3f, want 1", sum)
	}
	for i, t := range s.Tiers {
		if t.Policy == "" || isAutoPolicy(t.Policy) && autoInitial(t.Policy) == "" {
			continue
		}
		spec := t.Policy
		if isAutoPolicy(t.Policy) {
			spec = autoInitial(t.Policy)
		}
		if _, err := policy.Parse(spec); err != nil {
			return fmt.Errorf("core: tier %d: %w", i, err)
		}
	}
	if s.Selector != nil {
		for _, c := range s.Selector.Candidates {
			if _, err := policy.Parse(c); err != nil {
				return fmt.Errorf("core: selector candidate: %w", err)
			}
		}
	}
	return nil
}

// isAutoPolicy reports whether a tier policy spec enables online selection.
func isAutoPolicy(p string) bool {
	return p == "auto" || strings.HasPrefix(p, "auto:")
}

// autoInitial extracts the starting-policy spec from "auto:NAME" ("" for
// plain "auto").
func autoInitial(p string) string {
	if rest, ok := strings.CutPrefix(p, "auto:"); ok {
		return rest
	}
	return ""
}

// UnifiedSpec is the one-tier graph: the paper's unified baseline.
func UnifiedSpec(capacity uint64, local policy.Local) GraphSpec {
	s := GraphSpec{TotalCapacity: capacity, Tiers: []TierSpec{{Frac: 1}}}
	if local != nil {
		s.Local = func(Level) policy.Local { return local }
	}
	return s
}

// GraphSpec converts the legacy three-tier configuration into its graph
// form: an ungated nursery edge, a gated (and optionally promote-on-access)
// probation edge, and a terminal persistent tier.
func (c Config) GraphSpec() GraphSpec {
	return GraphSpec{
		TotalCapacity: c.TotalCapacity,
		Local:         c.Local,
		Tiers: []TierSpec{
			{Frac: c.NurseryFrac},
			{Frac: c.ProbationFrac, Threshold: c.PromoteThreshold, PromoteOnAccess: c.PromoteOnAccess},
			{Frac: c.PersistentFrac},
		},
	}
}

// levelFor labels tier i of an n-tier graph. One-tier graphs are unified;
// otherwise the first tier is the nursery, the last the persistent tier, the
// second the probation tier, and any further middle generations get fresh
// level values past the named ones.
func levelFor(i, n int) Level {
	switch {
	case n == 1:
		return LevelUnified
	case i == 0:
		return LevelNursery
	case i == n-1:
		return LevelPersistent
	case i == 1:
		return LevelProbation
	default:
		return Level(obs.NumLevels + i - 2)
	}
}

// ---------------------------------------------------------------------------
// Graph

// tier is one cache of a graph plus its outgoing eviction edge.
type tier struct {
	level Level
	idx   int // position in Graph.tiers
	arena *codecache.Arena
	local policy.Local

	// pred gates the edge to the next tier; nil admits every victim.
	pred Predictor
	// promoteOnAccess upgrades residents as soon as pred admits them.
	promoteOnAccess bool

	next *tier // nil for the last private tier

	// onEvict is this tier's capacity-eviction handler: route the victim
	// along the outgoing edge, or kill it when this is the final tier.
	onEvict func(codecache.Fragment)

	// vbuf is scratch for onEvict: Admit takes a pointer, and handing it the
	// stack copy makes every eviction heap-allocate a Fragment. Predictors
	// are deterministic inspectors (see Predictor), so a reused buffer is
	// observationally identical.
	vbuf codecache.Fragment
	// noopAccess records that local.OnAccess is statically a no-op, letting
	// the batched access path skip the interface call per hit. Set only when
	// no policy selector is attached (a selector may swap local at runtime).
	noopAccess bool
}

// Graph is a tier-graph manager: the one-tier unified baseline, the paper's
// three-tier generational design (§5, Figure 8), or any other shape its
// GraphSpec describes. In shared mode (NewGraphShared) the leading tiers stay
// process-private while the last one is a SharedPersistent serving every
// front-end process of a dbt.System.
type Graph struct {
	spec   GraphSpec
	tiers  []*tier
	shared *SharedPersistent // replaces the last tier when non-nil
	proc   int
	o      obs.Observer
	stats  Stats
	name   string
	// dropAnyErr applies the generational accounting rule (any insert error
	// counts as DropTooBig); one-tier graphs keep the unified rule (capacity
	// errors only).
	dropAnyErr bool
	ctl        *adaptiveController
	sel        *policySelector
	led        *attrib.Ledger

	// hint caches the tier index that last hit for each trace ID (dense, like
	// the arena's fragment index). It is purely an ordering hint for
	// AccessRun's tier probe: arena probes that miss are side-effect-free, so
	// a stale entry costs one wasted probe and nothing else. The zero value
	// (tier 0) reproduces the plain Access probe order.
	hint []uint8
}

// NewGraph builds a private tier graph from the specification. Lifecycle
// events are published to o (nil for none).
func NewGraph(spec GraphSpec, o obs.Observer) (*Graph, error) {
	return newGraph(spec, nil, 0, o)
}

// NewGraphShared builds the per-process half of a shared graph for front-end
// process proc: all tiers but the last are private, and the final tier is
// delegated to the given SharedPersistent (sized once by its creator; the
// spec's last fraction describes its share of a notional per-process total).
func NewGraphShared(spec GraphSpec, shared *SharedPersistent, proc int, o obs.Observer) (*Graph, error) {
	if shared == nil {
		return nil, fmt.Errorf("core: shared graph needs a shared persistent tier")
	}
	return newGraph(spec, shared, proc, o)
}

func newGraph(spec GraphSpec, shared *SharedPersistent, proc int, o obs.Observer) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(spec.Tiers)
	if shared != nil && n < 2 {
		return nil, fmt.Errorf("core: shared graph needs at least two tiers")
	}
	g := &Graph{spec: spec, shared: shared, proc: proc, o: o, dropAnyErr: n > 1}
	if spec.Adaptive != nil {
		g.ctl = newAdaptiveController(g, *spec.Adaptive)
	}
	// The attribution ledger: full when asked for, light when only the
	// adaptive controller needs the per-trace state machine.
	if spec.Attrib != nil {
		g.led = attrib.New(*spec.Attrib)
	} else if g.ctl != nil {
		g.led = attrib.New(attrib.Config{Light: true})
	}
	if g.led != nil {
		g.led.SetProc(proc)
		if g.ctl != nil {
			g.o = obs.Combine(obs.Observer(g.led), g.ctl, o)
		} else {
			g.o = obs.Combine(obs.Observer(g.led), o)
		}
	}
	mk := func(ts TierSpec, l Level) (policy.Local, error) {
		if ts.Policy != "" && !isAutoPolicy(ts.Policy) {
			fac, err := policy.Parse(ts.Policy)
			if err != nil {
				return nil, err
			}
			return fac.New(), nil
		}
		if spec.Local != nil {
			if p := spec.Local(l); p != nil {
				return p, nil
			}
		}
		return policy.PseudoCircular{}, nil
	}
	// Size the tiers: each gets the floor of its fraction, with the last
	// private tier of a fully private graph absorbing the rounding remainder
	// (exactly the legacy sizing).
	nPriv := n
	if shared != nil {
		nPriv = n - 1
	}
	var acc uint64
	for i := 0; i < nPriv; i++ {
		var b uint64
		if i == n-1 {
			b = spec.TotalCapacity - acc
		} else {
			b = uint64(float64(spec.TotalCapacity) * spec.Tiers[i].Frac)
		}
		acc += b
		ts := spec.Tiers[i]
		lvl := levelFor(i, n)
		local, err := mk(ts, lvl)
		if err != nil {
			return nil, fmt.Errorf("core: tier %d: %w", i, err)
		}
		t := &tier{
			level:           lvl,
			idx:             i,
			arena:           codecache.New(b),
			local:           local,
			promoteOnAccess: ts.PromoteOnAccess,
		}
		if ts.Predictor != nil {
			t.pred = ts.Predictor
		} else if ts.Threshold > 0 {
			t.pred = HitThreshold{N: ts.Threshold}
		}
		t.arena.SetObserver(g.o, lvl)
		t.arena.SetProcID(proc)
		g.tiers = append(g.tiers, t)
		if isAutoPolicy(ts.Policy) {
			if g.sel == nil {
				cfg := SelectorConfig{}
				if spec.Selector != nil {
					cfg = *spec.Selector
				}
				g.sel = newPolicySelector(g, cfg, nPriv)
			}
			if err := g.sel.attach(t, autoInitial(ts.Policy)); err != nil {
				return nil, fmt.Errorf("core: tier %d: %w", i, err)
			}
		}
	}
	for i, t := range g.tiers {
		if i+1 < len(g.tiers) {
			t.next = g.tiers[i+1]
		}
		g.tiers[i].onEvict = g.victimHandler(t)
	}
	g.name = graphName(spec, g)
	if g.ctl != nil {
		g.ctl.bind(g)
	}
	if g.led != nil {
		first := g.tiers[0].level
		final := first
		if shared != nil {
			final = LevelPersistent
		} else {
			final = g.tiers[len(g.tiers)-1].level
		}
		g.led.SetShape(first, final, shared != nil)
	}
	if g.sel == nil {
		for _, t := range g.tiers {
			switch t.local.(type) {
			case policy.PseudoCircular, policy.Unbounded:
				t.noopAccess = true
			}
		}
	}
	return g, nil
}

// graphName renders the graph's experiment label. Stock shapes keep their
// historical names ("unified/pseudo-circular", "generational/45-10-45@1").
func graphName(spec GraphSpec, g *Graph) string {
	if len(spec.Tiers) == 1 {
		if p := spec.Tiers[0].Policy; p != "" {
			return "unified/" + p
		}
		return "unified/" + g.tiers[0].local.Name()
	}
	kind := "generational"
	if g.shared != nil {
		kind = "generational-shared"
	}
	if spec.Adaptive != nil {
		kind += "-adaptive"
	}
	var b strings.Builder
	b.WriteString(kind)
	b.WriteByte('/')
	for i, t := range spec.Tiers {
		if i > 0 {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%.0f", t.Frac*100)
		if t.Policy != "" {
			b.WriteByte('@')
			b.WriteString(t.Policy)
		}
	}
	gate := spec.Tiers[len(spec.Tiers)-2]
	b.WriteByte('@')
	if gate.Predictor != nil {
		b.WriteString(gate.Predictor.Name())
	} else {
		b.WriteString(strconv.FormatUint(gate.Threshold, 10))
	}
	return b.String()
}

// victimHandler builds tier t's capacity-eviction handler.
func (g *Graph) victimHandler(t *tier) func(codecache.Fragment) {
	if t.next == nil && g.shared == nil {
		// Final tier: victims leave the system.
		return func(v codecache.Fragment) { g.die(v, t.level) }
	}
	return func(v codecache.Fragment) {
		if t.pred != nil {
			t.vbuf = v
			if !t.pred.Admit(&t.vbuf, t.arena.Clock()) {
				g.die(v, t.level)
				return
			}
			v = t.vbuf
		}
		g.promote(t, v)
	}
}

// die removes a trace from the system: publish the eviction and count it.
func (g *Graph) die(f codecache.Fragment, from Level) {
	g.stats.Evicted++
	g.stats.EvictedBytes += f.Size
	if from == LevelProbation {
		g.stats.ProbationDeaths++
	}
	obs.Emit(g.o, obs.Event{Kind: obs.KindEvict, Trace: f.ID, Size: f.Size, Module: f.Module, From: from, Proc: g.proc})
}

// promote relocates a victim of tier t into the next tier along its edge (or
// into the shared persistent tier when t is the last private tier of a
// shared graph). The gate has already admitted v.
func (g *Graph) promote(t *tier, v codecache.Fragment) {
	if v.Undeletable {
		// Pinned traces are never chosen as victims by the stock policies;
		// defensive guard for alternate local policies.
		g.die(v, t.level)
		return
	}
	var err error
	var to Level
	var final bool
	if t.next == nil {
		err = g.shared.Promote(g.proc, v)
		to = LevelPersistent
		final = true
	} else {
		n := t.next
		err = n.local.Insert(n.arena, v, n.onEvict)
		to = n.level
		final = n.next == nil && g.shared == nil
		if err == nil && g.sel != nil {
			g.sel.noteInsert(n.idx, v)
		}
	}
	if err != nil {
		// The trace cannot live in the next tier (too big or fully pinned):
		// it leaves the system.
		g.die(v, t.level)
		return
	}
	if final {
		g.stats.PromotedToPersist++
	} else {
		g.stats.PromotedToProbation++
	}
	obs.Emit(g.o, obs.Event{Kind: obs.KindPromote, Trace: v.ID, Size: v.Size, Module: v.Module, From: t.level, To: to, Proc: g.proc})
}

// SetProcID names the front-end process that owns this manager; the ID is
// stamped on every event it publishes. Single-process systems leave it 0.
func (g *Graph) SetProcID(proc int) {
	g.proc = proc
	for _, t := range g.tiers {
		t.arena.SetProcID(proc)
	}
	if g.led != nil {
		g.led.SetProc(proc)
	}
}

// Ledger returns the graph's full attribution ledger, or nil when none was
// requested (the adaptive controller's internal light ledger holds no
// aggregates and is not exposed).
func (g *Graph) Ledger() *attrib.Ledger {
	if g.led == nil || g.led.Light() {
		return nil
	}
	return g.led
}

// Shared returns the shared persistent tier, or nil in private mode.
func (g *Graph) Shared() *SharedPersistent { return g.shared }

// Name implements Manager.
func (g *Graph) Name() string { return g.name }

// Spec returns the graph's specification.
func (g *Graph) Spec() GraphSpec { return g.spec }

// arenaOf returns the private arena labelled with a level, or nil.
func (g *Graph) arenaOf(l Level) *codecache.Arena {
	for _, t := range g.tiers {
		if t.level == l {
			return t.arena
		}
	}
	return nil
}

// Arena exposes the first tier's arena for tests and fragmentation
// reporting (for a unified graph, the whole cache).
func (g *Graph) Arena() *codecache.Arena { return g.tiers[0].arena }

// TierCapacities returns the current capacity of each private tier in
// order. Under the adaptive controller these drift from the spec fractions.
func (g *Graph) TierCapacities() []uint64 {
	out := make([]uint64, len(g.tiers))
	for i, t := range g.tiers {
		out[i] = t.arena.Capacity()
	}
	return out
}

// Insert implements Manager: the insertNewTrace routine of Figure 8. New
// traces always enter the first tier; victims cascade along the eviction
// edges.
func (g *Graph) Insert(f codecache.Fragment) error {
	t := g.tiers[0]
	err := t.local.Insert(t.arena, f, t.onEvict)
	if err != nil {
		if g.dropAnyErr || errors.Is(err, codecache.ErrTooBig) || errors.Is(err, codecache.ErrNoSpace) {
			g.stats.DropTooBig++
		}
		return err
	}
	if g.sel != nil {
		g.sel.noteInsert(0, f)
	}
	g.stats.Inserts++
	obs.Emit(g.o, obs.Event{Kind: obs.KindInsert, Trace: f.ID, Size: f.Size, Module: f.Module, To: t.level, Proc: g.proc})
	return nil
}

// Access implements Manager. A hit in a promote-on-access tier upgrades the
// trace along its edge as soon as the gate admits it.
func (g *Graph) Access(id uint64) bool {
	g.stats.Accesses++
	if g.led != nil {
		g.led.Tick(1)
	}
	if g.ctl != nil {
		g.ctl.tick(g.stats.Accesses)
	}
	if g.sel != nil {
		g.sel.tick(g.stats.Accesses)
	}
	for i, t := range g.tiers {
		hit := t.arena.Access(id)
		if g.sel != nil {
			// Shadows see exactly the probes the live tier sees: every tier
			// up to and including the hit tier.
			g.sel.probe(i, id, hit, t.arena)
		}
		if hit {
			g.stats.Hits++
			if g.ctl != nil {
				g.ctl.noteHit(i)
			}
			t.local.OnAccess(t.arena, id)
			if t.promoteOnAccess {
				g.upgradeOnAccess(t, id)
			}
			return true
		}
	}
	if g.shared != nil && g.shared.Access(g.proc, id) {
		g.stats.Hits++
		return true
	}
	if g.led != nil {
		g.noteMiss(id)
	}
	return false
}

// noteMiss classifies a full miss through the attribution ledger, charges
// the adaptive controller when the miss traces back to an unsuperseded
// capacity eviction, and (in emitting mode) publishes the cause as a
// KindRegenerate event.
func (g *Graph) noteMiss(id uint64) {
	mi := g.led.Miss(id)
	if g.ctl != nil && mi.Charge {
		if i, ok := g.ctl.levelIdx[mi.Level]; ok {
			g.ctl.missFrom[i]++
		}
	}
	if g.led.EmitEvents() {
		obs.Emit(g.o, obs.Event{
			Kind: obs.KindRegenerate, Trace: id, Size: mi.Size,
			Module: mi.Module, From: mi.Level, Reason: mi.Cause, Proc: g.proc,
		})
	}
}

// hintDenseLimit bounds the tier-hint index, mirroring the arena's dense
// fragment index: sequentially assigned trace IDs all land below it, and
// arbitrary IDs simply go unhinted (probed in tier order).
const hintDenseLimit = 1 << 21

// noteHint remembers which tier a trace last hit in.
func (g *Graph) noteHint(id uint64, tier int) {
	if id >= uint64(len(g.hint)) {
		if id >= hintDenseLimit {
			return
		}
		n := len(g.hint) * 2
		if n < 64 {
			n = 64
		}
		if uint64(n) <= id {
			n = int(id) + 1
		}
		grown := make([]uint8, n)
		copy(grown, g.hint)
		g.hint = grown
	}
	g.hint[id] = uint8(tier)
}

// AccessRun implements RunAccessor: the leading run of private-tier hits is
// absorbed in one call, with the statistics flushed once at the end and the
// probe for each trace starting at the tier it last hit in (a stale hint
// wastes one side-effect-free probe, nothing more). Managers with an
// adaptive controller or policy selector attached refuse batching (-1):
// both need to observe every probe in order. A trace resident only in the
// shared tier ends the run — the caller's per-event Access performs the
// shared probe with its full bookkeeping.
func (g *Graph) AccessRun(ids []uint64) int {
	if g.ctl != nil || g.sel != nil {
		return -1
	}
	tiers := g.tiers
	done := 0
	for done < len(ids) {
		id := ids[done]
		hi := 0
		if id < uint64(len(g.hint)) {
			hi = int(g.hint[id])
		}
		t := tiers[hi]
		if t.noopAccess && !t.promoteOnAccess {
			// Pure tier — a hit carries no per-hit policy or promotion work,
			// so the arena can absorb the longest prefix of the run resident
			// in it in one call. Single residency makes this equivalent to
			// per-id probing: each processed id could only ever have hit this
			// arena. The id that ends the prefix falls through to the per-id
			// probe below (it may be resident in another tier, or a miss).
			if n := t.arena.AccessRun(ids[done:]); n > 0 {
				done += n
				continue
			}
		} else if t.arena.Access(id) {
			t.local.OnAccess(t.arena, id)
			if t.promoteOnAccess {
				g.upgradeOnAccess(t, id)
			}
			done++
			continue
		}
		t = nil
		for i, c := range tiers {
			if i != hi && c.arena.Access(id) {
				t = c
				g.noteHint(id, i)
				break
			}
		}
		if t == nil {
			break
		}
		if !t.noopAccess {
			t.local.OnAccess(t.arena, id)
		}
		if t.promoteOnAccess {
			g.upgradeOnAccess(t, id)
		}
		done++
	}
	g.stats.Accesses += uint64(done)
	g.stats.Hits += uint64(done)
	if g.led != nil {
		g.led.Tick(uint64(done))
	}
	return done
}

// upgradeOnAccess promotes a resident of tier t along its edge if the gate
// now admits it.
func (g *Graph) upgradeOnAccess(t *tier, id uint64) {
	if t.next == nil && g.shared == nil {
		return // final tier: nowhere to go
	}
	f, ok := t.arena.Lookup(id)
	if !ok || f.Undeletable {
		return
	}
	if t.pred != nil && !t.pred.Admit(f, t.arena.Clock()) {
		return
	}
	if v, err := t.arena.Delete(id, false); err == nil {
		if g.sel != nil {
			// A promote-on-access upgrade is gate-driven, not a local-policy
			// decision: it would have happened under any policy, so mirror
			// the removal into this tier's shadows.
			g.sel.noteRemove(t.idx, id)
		}
		g.promote(t, v)
	}
}

// Contains implements Manager.
func (g *Graph) Contains(id uint64) bool {
	for _, t := range g.tiers {
		if t.arena.Contains(id) {
			return true
		}
	}
	return g.shared != nil && g.shared.Contains(id)
}

// Where returns the level currently holding the trace.
func (g *Graph) Where(id uint64) (Level, bool) {
	for _, t := range g.tiers {
		if t.arena.Contains(id) {
			return t.level, true
		}
	}
	if g.shared != nil && g.shared.Contains(id) {
		return LevelPersistent, true
	}
	return 0, false
}

// DeleteModule implements Manager. In shared mode the private tiers drop
// their copies unconditionally, while the shared tier only drops this
// process's references: victims returned from there are the traces whose
// last reference drained.
func (g *Graph) DeleteModule(m uint16) []codecache.Fragment {
	var out []codecache.Fragment
	for _, t := range g.tiers {
		out = append(out, t.arena.DeleteModule(m)...)
	}
	if g.sel != nil {
		// Unmaps are program-forced: mirror them into every shadow directly.
		// The live tiers may have evicted some of the module's traces already
		// while a shadow still holds them, so the shadows drop their own
		// copies rather than replaying the live victims.
		g.sel.noteUnmap(m)
	}
	if g.shared != nil {
		out = append(out, g.shared.UnmapModule(g.proc, m)...)
	}
	if g.led != nil {
		// After the per-trace unmap events: any unclaimed capacity death of
		// this module is now superseded — a later re-heat is unmap-forced,
		// never a capacity charge.
		g.led.NoteModuleUnmap(m)
	}
	g.stats.ForcedDeletes += uint64(len(out))
	for _, f := range out {
		g.stats.ForcedDeleteBytes += f.Size
	}
	return out
}

// SetUndeletable implements Manager.
func (g *Graph) SetUndeletable(id uint64, pinned bool) bool {
	if g.sel != nil {
		// Pins apply wherever the fragment lives; a shadow may hold it even
		// when the live tier that matched does not.
		g.sel.notePinned(id, pinned)
	}
	for _, t := range g.tiers {
		if t.arena.SetUndeletable(id, pinned) {
			return true
		}
	}
	if g.shared != nil {
		return g.shared.SetUndeletable(id, pinned)
	}
	return false
}

// Capacity implements Manager. In shared mode the shared tier's full
// capacity is included (it is one system-wide arena, not a per-process
// slice).
func (g *Graph) Capacity() uint64 {
	var c uint64
	for _, t := range g.tiers {
		c += t.arena.Capacity()
	}
	if g.shared != nil {
		c += g.shared.Capacity()
	}
	return c
}

// Used implements Manager.
func (g *Graph) Used() uint64 {
	var u uint64
	for _, t := range g.tiers {
		u += t.arena.Used()
	}
	if g.shared != nil {
		u += g.shared.Used()
	}
	return u
}

// Stats implements Manager.
func (g *Graph) Stats() Stats { return g.stats }

// Levels implements Manager.
func (g *Graph) Levels() map[Level]codecache.Stats {
	out := make(map[Level]codecache.Stats, len(g.tiers)+1)
	for _, t := range g.tiers {
		out[t.level] = t.arena.Stats()
	}
	if g.shared != nil {
		out[LevelPersistent] = g.shared.ArenaStats()
	}
	return out
}

// PersistentFragments returns copies of the traces currently resident in
// the final tier, in address order. Cross-run cache persistence snapshots
// these.
func (g *Graph) PersistentFragments() []codecache.Fragment {
	if g.shared != nil {
		return g.shared.Fragments()
	}
	last := g.tiers[len(g.tiers)-1]
	frags := last.arena.Fragments()
	out := make([]codecache.Fragment, 0, len(frags))
	for _, f := range frags {
		out = append(out, *f)
	}
	return out
}

// InsertPersistent places a trace directly into the final tier, bypassing
// the earlier generations. It exists for warm-starting a fresh manager from
// a persisted snapshot; normal insertion must go through Insert (Figure 8).
// On a one-tier graph the final tier is the whole cache, so this is Insert.
// In shared mode the warm trace enters the shared tier owned by this
// process.
func (g *Graph) InsertPersistent(f codecache.Fragment) error {
	if g.shared == nil && len(g.tiers) == 1 {
		return g.Insert(f)
	}
	var err error
	if g.shared != nil {
		err = g.shared.InsertWarm([]int{g.proc}, f)
	} else {
		last := g.tiers[len(g.tiers)-1]
		err = last.local.Insert(last.arena, f, last.onEvict)
		if err == nil {
			if g.sel != nil {
				g.sel.noteInsert(last.idx, f)
			}
			obs.Emit(g.o, obs.Event{Kind: obs.KindInsert, Trace: f.ID, Size: f.Size, Module: f.Module, To: last.level, Proc: g.proc})
		}
	}
	if err != nil {
		return err
	}
	g.stats.Inserts++
	return nil
}

// CheckInvariants validates that no trace is resident in two tiers and all
// arenas are structurally sound. In shared mode only the private tiers are
// checked against each other (a trace may legitimately be resident in the
// shared tier and in another process's private tiers); the shared tier has
// its own CheckInvariants. Tests call this.
func (g *Graph) CheckInvariants() error {
	for _, t := range g.tiers {
		if err := t.arena.CheckInvariants(); err != nil {
			return err
		}
	}
	seen := make(map[uint64]Level)
	for _, t := range g.tiers {
		for _, f := range t.arena.Fragments() {
			if prev, dup := seen[f.ID]; dup {
				return fmt.Errorf("core: trace %d resident in both %s and %s", f.ID, prev, t.level)
			}
			seen[f.ID] = t.level
		}
	}
	if g.shared != nil {
		return g.shared.CheckInvariants()
	}
	return nil
}

// ---------------------------------------------------------------------------
// CLI tier-spec parsing

// ParseTierSpec parses a tier layout string into a graph specification over
// the given total capacity. The dash-separated fields are tier percentages
// (they must sum to 100), each optionally followed by "@policy" naming that
// tier's local policy by its dash-free registry alias ("30@lru-70@trrip") or
// enabling online selection ("50@auto-50"). The final field may additionally
// end with an "@"-joined list of promotion thresholds, in order, for the
// gated tiers (every tier but the first and last — the probation
// generations); a single value applies to all of them. Gated tiers with a
// threshold of at most 1 promote on access, matching the paper's "@1"
// configurations. The legacy forms ("45-10-45@1") parse unchanged.
func ParseTierSpec(s string, total uint64) (GraphSpec, error) {
	spec := GraphSpec{TotalCapacity: total}
	parts := strings.Split(s, "-")
	if len(parts) < 1 || strings.TrimSpace(parts[0]) == "" {
		return GraphSpec{}, fmt.Errorf("core: empty tier spec %q", s)
	}
	var sum float64
	var gateVals []string
	hasGates := false
	for pi, p := range parts {
		toks := strings.Split(p, "@")
		pct, err := strconv.ParseFloat(strings.TrimSpace(toks[0]), 64)
		if err != nil {
			return GraphSpec{}, fmt.Errorf("core: bad tier percentage %q in %q", toks[0], s)
		}
		ts := TierSpec{Frac: pct / 100}
		for ti, tok := range toks[1:] {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return GraphSpec{}, fmt.Errorf("core: empty policy name in tier %d of %q", pi, s)
			}
			if vals, ok := parseGateList(tok); ok {
				// A numeric list is the legacy threshold suffix; it must
				// close the whole spec.
				if pi != len(parts)-1 || ti != len(toks)-2 {
					return GraphSpec{}, fmt.Errorf("core: thresholds %q must end the tier spec %q", tok, s)
				}
				gateVals, hasGates = vals, true
			} else if ts.Policy != "" {
				return GraphSpec{}, fmt.Errorf("core: tier %d of %q names two policies", pi, s)
			} else {
				ts.Policy = tok
			}
		}
		sum += pct
		spec.Tiers = append(spec.Tiers, ts)
	}
	if len(spec.Tiers) > 1 && !(sum >= 99.9 && sum <= 100.1) {
		return GraphSpec{}, fmt.Errorf("core: tier percentages in %q sum to %.1f, want 100", s, sum)
	}
	if hasGates {
		if len(spec.Tiers) < 3 {
			return GraphSpec{}, fmt.Errorf("core: tier spec %q has thresholds but no gated tier", s)
		}
		gated := len(spec.Tiers) - 2
		if len(gateVals) > gated {
			return GraphSpec{}, fmt.Errorf("core: tier spec %q lists %d thresholds for %d gated tiers", s, len(gateVals), gated)
		}
		var last uint64
		for i := 0; i < gated; i++ {
			if i < len(gateVals) {
				v, err := strconv.ParseUint(gateVals[i], 10, 64)
				if err != nil {
					return GraphSpec{}, fmt.Errorf("core: bad threshold %q in %q", gateVals[i], s)
				}
				last = v
			}
			spec.Tiers[i+1].Threshold = last
			spec.Tiers[i+1].PromoteOnAccess = last <= 1
		}
	}
	if err := spec.Validate(); err != nil {
		return GraphSpec{}, err
	}
	return spec, nil
}

// parseGateList reports whether a tier-spec token is a comma-separated list
// of unsigned thresholds (the legacy "@1" / "@1,10" gate suffix), returning
// the trimmed values. Policy names never parse as one.
func parseGateList(tok string) ([]string, bool) {
	vals := strings.Split(tok, ",")
	for i, v := range vals {
		v = strings.TrimSpace(v)
		if _, err := strconv.ParseUint(v, 10, 64); err != nil {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}
