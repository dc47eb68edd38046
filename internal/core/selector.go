// The online policy selector: per-tier races between the live local policy
// and a zoo of challengers, decided at deterministic epoch boundaries. For
// every tier whose spec says Policy: "auto", the selector keeps one
// policy.Shadow per candidate — a byte-accurate model arena running a
// private instance of that policy — and feeds all of them the tier's real
// stimulus: demand probes from the access path, arriving fragments from the
// insert and promotion paths, and the non-policy removals (upgrades, module
// unmaps, pins, adaptive capacity shifts) that would happen under any
// policy. Each shadow's window hit count is then a direct counterfactual:
// how many of this tier's probes that policy would have served.
//
// Shadows that fall behind the live arena self-repair: a shadow miss on a
// trace the live tier still holds replays the regeneration every real miss
// triggers, so each shadow stays a faithful counterfactual instead of being
// starved by an insert stream conditioned on the live policy's choices.
//
// A switch requires a challenger whose shadow holds a cumulative hit lead
// over the incumbent's — large enough to dwarf the adoption transient a
// mid-run install pays, and larger still when the challenger carries
// placement-sensitive bookkeeping (policy.Adopter) — while also winning the
// current window. Decisions reuse the damping phases of the adaptive split
// controller: bootstrap (right after the shadows first diverge, when the
// candidate arenas are still nearly identical, the margin drops and a single
// winning window confirms), confirm (two consecutive winning windows on top
// of the full margin), and settled (after the selector has reversed itself
// twice the margin rises sharply — at that point the policies are
// demonstrably trading phases and chasing them only churns the cache).
// Epochs are keyed to the graph's own access counter, never wall time, and
// every shadow structure is an ordered slice, so selection is bit-identical
// across runs and worker-pool sizes.
package core

import (
	"repro/internal/codecache"
	"repro/internal/obs"
	"repro/internal/policy"
)

// SelectorConfig tunes a graph's online policy selector. The zero value of
// any field selects its default.
type SelectorConfig struct {
	// Epoch is the number of Access calls between selector decisions
	// (default 2048).
	Epoch uint64
	// Candidates lists the registry specs raced on every auto tier (default
	// DefaultSelectorCandidates). The first entry is the initial live policy
	// unless the tier spec names one ("auto:lru").
	Candidates []string
}

// DefaultSelectorCandidates is the stock challenger set: the LRU baseline,
// the paper's own pseudo-circular sweep, and the TRRIP temperature policy.
// LRU leads deliberately, because the first candidate is the initial live
// policy and mid-run adoption costs are asymmetric: a policy with rich
// placement-sensitive bookkeeping (LRU) keeps paying for an arena laid out
// by someone else's sweep, while the stateless cursor policies absorb an
// inherited layout for free. Starting on the most adoption-fragile candidate
// means every switch the selector ever makes moves toward a policy that is
// cheap to install mid-run.
var DefaultSelectorCandidates = []string{"lru", "pseudo-circular", "trrip"}

func (c SelectorConfig) withDefaults() SelectorConfig {
	if c.Epoch == 0 {
		c.Epoch = 2048
	}
	if len(c.Candidates) == 0 {
		c.Candidates = DefaultSelectorCandidates
	}
	return c
}

// SelectorStats counts selector activity across all auto tiers.
type SelectorStats struct {
	Epochs    uint64 // decision points
	Switches  uint64 // live-policy swaps applied
	Reversals uint64 // swaps that undid the immediately preceding one
	// MissCauses is the per-cause miss breakdown (indexed by obs.Reason)
	// observed over the whole run by the graph's attribution ledger — the
	// switch report's "what the selector was up against". All zeros unless a
	// full ledger is attached (GraphSpec.Attrib).
	MissCauses [obs.NumReasons]uint64
}

// selectorBootstrapEpochs is how many epochs after the shadows first diverge
// run in bootstrap mode: a single winning window confirms a switch instead of
// two consecutive ones, and the cumulative margin drops to
// selectorBootstrapMargin. Mirrors the adaptive controller's bootstrap walk.
const selectorBootstrapEpochs = 8

// selectorBootstrapMargin is the cumulative-lead requirement during
// bootstrap. Right after the shadows first diverge the candidate arenas are
// still nearly identical, so the adoption transient a switch pays is tiny
// and the evidence bar can be correspondingly low — waiting for the full
// margin would charge several windows to an arbitrary starting policy.
const selectorBootstrapMargin = 4

// selectorSwitchMargin is the cumulative-hit lead a challenger's shadow must
// hold over the incumbent's before a switch is considered. Installing a
// policy mid-run is never free — the new policy inherits an arena laid out
// by its predecessor and pays a transient of extra misses while the layouts
// converge — so a switch is only worth making when the counterfactual
// advantage dwarfs that transient. Window noise on near-tie workloads stays
// under this; genuinely mismatched policies blow past it within a few
// windows.
const selectorSwitchMargin = 16

// selectorAdoptiveMarginFactor scales the margin when the challenger
// implements policy.Adopter. Needing adoption marks exactly the policies
// whose decisions depend on history they did not witness (recency order,
// re-reference predictions): installed mid-run they keep paying for an
// arena laid out by someone else's sweep, a transient measured several
// times larger than for the stateless cursor policies, so the evidence bar
// rises in proportion.
const selectorAdoptiveMarginFactor = 6

// selTier is the selector's per-tier state.
type selTier struct {
	t       *tier
	facs    []policy.Factory
	shadows []*policy.Shadow
	// adoptive marks candidates whose instances implement policy.Adopter;
	// switching to one demands a larger cumulative lead.
	adoptive []bool

	// live is the candidate index currently installed as t.local.
	live int
	// pend/pendWins track the challenger that won the previous window and
	// how many consecutive windows it has won; post-bootstrap switches need
	// two.
	pend     int
	pendWins int

	// warm flips when the shadows first disagree on a window — before the
	// cache fills, every policy scores identically and windows carry no
	// signal. warmEpochs counts epochs since.
	warm       bool
	warmEpochs uint64

	// lastFrom/lastTo record the direction of the last switch; reversals
	// (A→B followed by B→A) push the tier into the settled phase.
	lastFrom  int
	lastTo    int
	reversals uint64
}

// policySelector drives selection for one graph. All state is per-tier and
// updated synchronously from the graph's own call paths.
type policySelector struct {
	cfg   SelectorConfig
	g     *Graph
	tiers []*selTier // indexed by tier position; nil = tier not under selection
	stats SelectorStats
}

func newPolicySelector(g *Graph, cfg SelectorConfig, nPriv int) *policySelector {
	return &policySelector{cfg: cfg.withDefaults(), g: g, tiers: make([]*selTier, nPriv)}
}

// attach puts tier t under selection. initial names the starting live policy
// ("" for the first candidate); a starting policy outside the candidate list
// joins it, so a snapshot resumed with a parameterized winner keeps racing
// it against the stock zoo.
func (s *policySelector) attach(t *tier, initial string) error {
	st := &selTier{t: t, live: 0, pend: -1, lastFrom: -1, lastTo: -1}
	for _, c := range s.cfg.Candidates {
		fac, err := policy.Parse(c)
		if err != nil {
			return err
		}
		st.facs = append(st.facs, fac)
	}
	if initial != "" {
		fac, err := policy.Parse(initial)
		if err != nil {
			return err
		}
		st.live = -1
		for i, f := range st.facs {
			if f.Spec() == fac.Spec() {
				st.live = i
				break
			}
		}
		if st.live < 0 {
			st.facs = append(st.facs, fac)
			st.live = len(st.facs) - 1
		}
	}
	for _, fac := range st.facs {
		sh := policy.NewShadow(t.arena.Capacity(), fac.New())
		st.shadows = append(st.shadows, sh)
		_, ad := sh.Policy().(policy.Adopter)
		st.adoptive = append(st.adoptive, ad)
	}
	t.local = st.facs[st.live].New()
	s.tiers[t.idx] = st
	return nil
}

// tick runs the selector at deterministic epoch boundaries of the graph's
// access counter.
func (s *policySelector) tick(accesses uint64) {
	if accesses%s.cfg.Epoch == 0 {
		s.epoch()
	}
}

// probe feeds one demand access on tier i to its shadows. liveHit reports
// whether the live tier served the access, with arena holding the fragment.
// A shadow that misses while the live tier hits regenerates the fragment on
// the spot: in the real system every miss is followed by a regeneration, so
// a shadow whose policy evicted a trace the live policy kept pays one
// counterfactual miss and re-acquires the trace — without this, the insert
// stream (conditioned on the live policy's evictions) would never repair a
// diverged shadow, and every challenger would score worse the further its
// decisions drift from the incumbent's. The symmetric case needs no code:
// when the live tier misses too, the replay regenerates for real and the
// insert path feeds the shadows.
func (s *policySelector) probe(i int, id uint64, liveHit bool, arena *codecache.Arena) {
	st := s.tiers[i]
	if st == nil {
		return
	}
	for _, sh := range st.shadows {
		if !sh.Probe(id) && liveHit {
			if f, ok := arena.Lookup(id); ok {
				sh.Insert(*f)
			}
		}
	}
}

// noteInsert feeds a fragment arriving in tier i to its shadows.
func (s *policySelector) noteInsert(i int, f codecache.Fragment) {
	st := s.tiers[i]
	if st == nil {
		return
	}
	for _, sh := range st.shadows {
		sh.Insert(f)
	}
}

// noteRemove mirrors a non-policy removal from tier i.
func (s *policySelector) noteRemove(i int, id uint64) {
	st := s.tiers[i]
	if st == nil {
		return
	}
	for _, sh := range st.shadows {
		sh.Remove(id)
	}
}

// noteUnmap mirrors a module unmap into every shadow of every tier.
func (s *policySelector) noteUnmap(m uint16) {
	for _, st := range s.tiers {
		if st == nil {
			continue
		}
		for _, sh := range st.shadows {
			sh.UnmapModule(m)
		}
	}
}

// notePinned mirrors a pin state change into every shadow of every tier.
func (s *policySelector) notePinned(id uint64, pinned bool) {
	for _, st := range s.tiers {
		if st == nil {
			continue
		}
		for _, sh := range st.shadows {
			sh.SetPinned(id, pinned)
		}
	}
}

// noteResize mirrors an adaptive capacity shift on tier i into its shadows.
func (s *policySelector) noteResize(i int, newCapacity uint64) {
	if i < 0 || i >= len(s.tiers) {
		return
	}
	st := s.tiers[i]
	if st == nil {
		return
	}
	for _, sh := range st.shadows {
		sh.Resize(newCapacity)
	}
}

// epoch is one selector decision point: judge every auto tier's window, then
// reset the windows.
func (s *policySelector) epoch() {
	s.stats.Epochs++
	for _, st := range s.tiers {
		if st == nil {
			continue
		}
		s.decide(st)
		for _, sh := range st.shadows {
			sh.ResetWindow()
		}
	}
}

// decide judges one tier's window. The winner is the shadow with the most
// window hits; ties keep the incumbent, then the lower candidate index, so
// the choice is deterministic. A challenger must beat the incumbent's shadow
// by the phase's margin — its shadow, not the live tier's hit count, so both
// sides are scored on the same counterfactual basis.
func (s *policySelector) decide(st *selTier) {
	liveWin := st.shadows[st.live].WindowHits()
	liveTot := st.shadows[st.live].TotalHits()
	best, bestTot := st.live, liveTot
	diverged := false
	for c, sh := range st.shadows {
		if sh.WindowHits() != liveWin || sh.TotalHits() != liveTot {
			diverged = true
		}
		if t := sh.TotalHits(); c != st.live && t > bestTot {
			best, bestTot = c, t
		}
	}
	if !st.warm {
		// Before the tier first fills every policy scores identically and
		// windows carry no signal; the damping clock starts at the first
		// divergence.
		if !diverged {
			return
		}
		st.warm = true
	}
	st.warmEpochs++
	margin := uint64(selectorSwitchMargin)
	if best != st.live && st.adoptive[best] {
		margin *= selectorAdoptiveMarginFactor
	}
	if st.warmEpochs <= selectorBootstrapEpochs {
		margin = selectorBootstrapMargin
	}
	if st.reversals >= 2 {
		// The selector has reversed itself twice: the policies are
		// demonstrably trading phases and chasing them only churns the
		// cache. Demand an overwhelming case to move again.
		margin *= 4
	}
	if best == st.live || bestTot < liveTot+margin ||
		st.shadows[best].WindowHits() <= liveWin {
		// A switch needs a cumulative lead big enough to dwarf the adoption
		// transient AND a strict win in the current window — the first so one
		// lucky stretch cannot steal a tier from the policy serving it best
		// overall, the second so the selector never switches toward a policy
		// whose advantage has already faded.
		st.pend, st.pendWins = -1, 0
		return
	}
	if best == st.pend {
		st.pendWins++
	} else {
		st.pend, st.pendWins = best, 1
	}
	need := 2
	if st.warmEpochs <= selectorBootstrapEpochs {
		need = 1
	}
	if st.pendWins >= need {
		s.switchTo(st, best)
		st.pend, st.pendWins = -1, 0
	}
}

// switchTo installs candidate c as tier st's live policy. The fresh instance
// adopts the arena's residents so it starts with real bookkeeping instead of
// treating a full cache as unknown. Shadows are untouched: the race
// continues, and the deposed policy may win the tier back.
func (s *policySelector) switchTo(st *selTier, c int) {
	from := st.live
	p := st.facs[c].New()
	if ad, ok := p.(policy.Adopter); ok {
		ad.Adopt(st.t.arena)
	}
	st.t.local = p
	st.live = c
	if st.lastFrom >= 0 && from == st.lastTo && c == st.lastFrom {
		st.reversals++
		s.stats.Reversals++
	}
	st.lastFrom, st.lastTo = from, c
	s.stats.Switches++
	obs.Emit(s.g.o, obs.Event{Kind: obs.KindPolicySwitch, From: st.t.level, Policy: st.facs[c].Spec(), Proc: s.g.proc})
}

// ---------------------------------------------------------------------------
// Graph accessors

// LivePolicies returns the current live local policy name of each private
// tier, in tier order. Under selection these change at epoch boundaries.
func (g *Graph) LivePolicies() []string {
	out := make([]string, len(g.tiers))
	for i, t := range g.tiers {
		out[i] = t.local.Name()
	}
	return out
}

// SelectorStats returns the online policy selector's counters; ok is false
// when no tier is under selection.
func (g *Graph) SelectorStats() (SelectorStats, bool) {
	if g.sel == nil {
		return SelectorStats{}, false
	}
	ss := g.sel.stats
	if led := g.Ledger(); led != nil {
		ss.MissCauses = led.Totals()
	}
	return ss, true
}

// PersistPolicies returns the per-tier policy specs a snapshot should carry:
// "auto:SPEC" for tiers under selection (SPEC being the currently live
// candidate, so a warm restart resumes the selected policy), the configured
// spec for static custom tiers, and "" for default tiers. The slice covers
// every spec tier, including a shared final tier (always "").
func (g *Graph) PersistPolicies() []string {
	out := make([]string, len(g.spec.Tiers))
	for i, ts := range g.spec.Tiers {
		if i < len(g.tiers) {
			out[i] = ts.Policy
		}
	}
	if g.sel != nil {
		for i, st := range g.sel.tiers {
			if st != nil {
				out[i] = "auto:" + st.facs[st.live].Spec()
			}
		}
	}
	return out
}
