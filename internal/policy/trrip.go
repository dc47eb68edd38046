package policy

import (
	"repro/internal/codecache"
	"repro/internal/idtab"
)

// TRRIP is a trace-cache adaptation of re-reference interval prediction
// (SRRIP with temperature-seeded insertion). Every resident trace carries a
// re-reference prediction value (RRPV): 0 predicts imminent re-execution,
// Max predicts none. Insertions are classified by the heat the trace brings
// with it — the access count accumulated while it was resident in the tier
// it came from, which the dispatcher feeds from the same counters that drive
// bb-cache trace selection. A promoted victim that ran hot inserts near 0, a
// trace with some history inserts warm, and a freshly built trace (no
// re-reference evidence yet) inserts cold, one step from eviction. Hits
// promote to 0; when no victim is at Max the whole cache ages in one step.
type TRRIP struct {
	// Max is the distant-future RRPV; victims are taken from it.
	Max uint8
	// Cold is the insertion RRPV for traces with no prior accesses.
	Cold uint8
	// Warm is the insertion RRPV for traces with some prior accesses.
	Warm uint8
	// Hot is the prior-access count at or above which a trace inserts at 0.
	Hot uint64

	spec string

	// rrpv is the prediction table, by fragment ID. Only entries for
	// resident fragments are meaningful. Entries are stored relative to
	// bias, so aging every evictable resident by k is bias += k plus
	// restoring the residents aging skips. The uint8 arithmetic wraps, which
	// is exact because every resident's RRPV stays within [0, Max].
	rrpv idtab.Table[uint8]
	bias uint8

	// unaged is the current search's pinned and referenced residents with
	// their RRPVs: aging leaves them alone.
	unaged []trripEntry

	// The victim search resumes after the resident resumeID at arena offset
	// resumeOff when resumeOK is set. Invariant: every resident at or below
	// that point, evictable or not, holds an RRPV below Max.
	resumeID, resumeOff uint64
	resumeOK            bool
}

// NewTRRIP returns a TRRIP policy with the default geometry (3-bit RRPV:
// max 7, cold 6, warm 4, hot threshold 2).
func NewTRRIP() *TRRIP {
	return &TRRIP{Max: 7, Cold: 6, Warm: 4, Hot: 2, spec: "trrip"}
}

// newTRRIPFrom builds a TRRIP instance from registry parameters. Insertion
// values above max clamp to max.
func newTRRIPFrom(p *paramSet) *TRRIP {
	t := &TRRIP{
		Max:  uint8(p.uintIn("max", 7, 0, 255)),
		Cold: uint8(p.uintIn("cold", 6, 0, 255)),
		Warm: uint8(p.uintIn("warm", 4, 0, 255)),
		Hot:  p.uint("hot", 2),
	}
	if t.Max == 0 {
		t.Max = 1
	}
	if t.Cold > t.Max {
		t.Cold = t.Max
	}
	if t.Warm > t.Max {
		t.Warm = t.Max
	}
	t.spec = "trrip"
	return t
}

// Name implements Local.
func (t *TRRIP) Name() string { return t.spec }

// trripEntry is a resident and its RRPV.
type trripEntry struct {
	id uint64
	v  uint8
}

// get returns the RRPV recorded for a resident.
func (t *TRRIP) get(id uint64) uint8 { return t.rrpv.Get(id) + t.bias }

// set records the RRPV for an ID.
func (t *TRRIP) set(id uint64, v uint8) { t.rrpv.Set(id, v-t.bias) }

// classify maps a trace's insertion heat to its starting RRPV.
func (t *TRRIP) classify(f codecache.Fragment) uint8 {
	switch {
	case f.AccessCount >= t.Hot:
		return 0
	case f.AccessCount > 0:
		return t.Warm
	default:
		return t.Cold
	}
}

// OnAccess implements Local: a hit predicts imminent re-reference.
func (t *TRRIP) OnAccess(a *codecache.Arena, id uint64) {
	t.set(id, 0)
}

// Adopt implements Adopter: classify the residents a freshly installed
// instance inherits by the heat they accumulated in place.
func (t *TRRIP) Adopt(a *codecache.Arena) {
	t.resumeOK = false
	a.Visit(func(f *codecache.Fragment) bool {
		t.set(f.ID, t.classify(*f))
		return true
	})
}

// Insert implements Local.
func (t *TRRIP) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if err := insertEvicting(a, f, onEvict, t); err != nil {
		return err
	}
	v := t.classify(f)
	t.set(f.ID, v)
	if v == t.Max && t.resumeOK {
		// First fit takes the lowest hole, so a trace inserted at Max may
		// land at or below the resume point.
		if off, _ := a.Offset(f.ID); off <= t.resumeOff {
			t.resumeOK = false
		}
	}
	return nil
}

// victim picks the first evictable fragment, in address order, holding the
// largest RRPV currently present, then ages every other evictable resident
// by the distance to Max — the single-step equivalent of RRIP's "increment
// all and rescan" loop, without the rescans. Address order keeps the choice
// deterministic. No evictable resident can pass Max by aging, since the
// victim holds the largest value.
//
// No resident at or below the resume point holds Max, so a search starts
// after it and usually meets a Max there. Only when it reaches the end
// without one, or there is no resume point, does the search scan from the
// lowest address; aging then costs one bias update instead of a second walk.
func (t *TRRIP) victim(a *codecache.Arena) (uint64, bool) {
	if t.resumeOK {
		s := trripScan{t: t, clean: t.resumeID, cleanOK: true}
		if a.VisitAfter(t.resumeID, t.resumeOff, s.visit) && s.found && s.bestVal == t.Max {
			t.resumeAt(a, &s)
			return s.best, true
		}
	}
	t.unaged = t.unaged[:0]
	s := trripScan{t: t, full: true}
	a.Visit(s.visit)
	if !s.found {
		return 0, false
	}
	if age := t.Max - s.bestVal; age > 0 {
		// The victim ages too, harmlessly: it is about to leave.
		t.bias += age
		for _, e := range t.unaged {
			t.set(e.id, e.v)
		}
	}
	t.resumeAt(a, &s)
	return s.best, true
}

// resumeAt moves the resume point to the last resident the search saw before
// its victim, but never past a resident at Max: a pinned or referenced one
// becomes evictable through an unpin or release TRRIP never sees. Aging
// keeps the invariant, since every evictable resident before the victim,
// the first holding the largest value, stays below Max.
func (t *TRRIP) resumeAt(a *codecache.Arena, s *trripScan) {
	t.resumeID, t.resumeOK = s.resume, s.resumeOK
	if s.resumeOK {
		t.resumeOff, _ = a.Offset(s.resume)
	}
}

// trripScan is one victim search's state as it walks residents in address
// order.
type trripScan struct {
	t *TRRIP
	// best is the first evictable resident holding the largest RRPV seen.
	best    uint64
	bestVal uint8
	found   bool
	// clean is the last resident of the scanned prefix holding no Max; dirty
	// is set once a resident at Max is seen. resume is clean as of best.
	clean, resume     uint64
	cleanOK, resumeOK bool
	dirty             bool
	// full marks a scan from the lowest address, which collects the pinned
	// and referenced residents into t.unaged.
	full bool
}

func (s *trripScan) visit(f *codecache.Fragment) bool {
	v := s.t.get(f.ID)
	if v > s.t.Max {
		v = s.t.Max
	}
	evictable := !f.Undeletable && f.Refs == 0
	if !evictable && s.full {
		s.t.unaged = append(s.t.unaged, trripEntry{f.ID, v})
	}
	if evictable && (!s.found || v > s.bestVal) {
		s.best, s.bestVal, s.found = f.ID, v, true
		s.resume, s.resumeOK = s.clean, s.cleanOK
		if v == s.t.Max {
			return false // nothing can outrank Max; stop at the first
		}
	}
	if !s.dirty {
		if v == s.t.Max {
			s.dirty = true
		} else {
			s.clean, s.cleanOK = f.ID, true
		}
	}
	return true
}
