package policy

import (
	"errors"

	"repro/internal/codecache"
)

// Shadow races one challenger policy against a live tier's demand stream.
// It owns a private model arena with the same capacity as the live tier —
// byte-accurate, because arenas track fragment geometry only (no code bytes
// exist anywhere in the simulation), so a shadow costs a second set of
// bookkeeping, not a second cache. The online selector feeds every shadow
// the live tier's stimulus — demand probes, arriving fragments, forced
// removals — and each shadow's own policy makes its own victim choices, so
// its window hit count answers "how many of this tier's probes would have
// hit had this policy been live?".
//
// Capacity-driven evictions are deliberately NOT mirrored: they are exactly
// the decisions under test, and the shadow's policy replays them itself
// during Insert. Only non-policy removals — promote-on-access upgrades,
// module unmaps, pins, capacity shifts — are forwarded, because the live
// tier would have experienced those under any policy. Shadow arenas carry no
// observer, so counterfactual activity never reaches the obs stream or any
// stats consumer.
type Shadow struct {
	arena *codecache.Arena
	local Local

	probes uint64
	hits   uint64

	// Lifetime totals, never reset: the selector demands a cumulative lead
	// as well as a window win before switching, so one lucky window cannot
	// steal a tier from the policy that serves it best overall.
	totalProbes uint64
	totalHits   uint64
}

// NewShadow builds a shadow of a tier with the given capacity, running the
// given policy instance (which must be private to this shadow).
func NewShadow(capacity uint64, local Local) *Shadow {
	return &Shadow{arena: codecache.New(capacity), local: local}
}

// Policy returns the shadow's policy instance.
func (s *Shadow) Policy() Local { return s.local }

// Arena exposes the model arena for equivalence tests.
func (s *Shadow) Arena() *codecache.Arena { return s.arena }

// Probe replays one demand access and reports whether the shadow would have
// hit. This is the hot path: one arena access plus the policy's recency
// bookkeeping, allocation-free in steady state.
func (s *Shadow) Probe(id uint64) bool {
	s.probes++
	s.totalProbes++
	if s.arena.Access(id) {
		s.hits++
		s.totalHits++
		s.local.OnAccess(s.arena, id)
		return true
	}
	return false
}

// Insert replays a fragment arriving in the live tier. The shadow's policy
// chooses its own victims; they vanish (a counterfactual eviction has no
// downstream tier to land in). A fragment the shadow still holds — the live
// tier evicted it, the shadow's policy kept it, and it is now being
// regenerated — is left in place.
func (s *Shadow) Insert(f codecache.Fragment) {
	if s.arena.Contains(f.ID) {
		return
	}
	_ = s.local.Insert(s.arena, f, nil)
}

// Remove mirrors a non-policy removal (a promote-on-access upgrade pulling
// the trace into the next tier). Absent fragments are ignored.
func (s *Shadow) Remove(id uint64) {
	if s.arena.Contains(id) {
		_, _ = s.arena.Delete(id, true)
	}
}

// UnmapModule mirrors a program-forced module unmap.
func (s *Shadow) UnmapModule(m uint16) {
	s.arena.DeleteModule(m)
}

// SetPinned mirrors a pin state change. The shadow may hold the fragment
// even when the live tier does not (or vice versa); absent IDs are ignored.
func (s *Shadow) SetPinned(id uint64, pinned bool) {
	s.arena.SetUndeletable(id, pinned)
}

// Resize mirrors a capacity shift from the adaptive split controller. The
// live tier's resize already succeeded, but the shadow's layout may differ
// and park a pinned fragment in the truncated tail; such fragments are
// force-removed so the model always matches the live capacity.
func (s *Shadow) Resize(newCapacity uint64) {
	for {
		err := s.arena.Resize(newCapacity, nil)
		if err == nil || !errors.Is(err, codecache.ErrResizePinned) {
			return
		}
		var pinnedID uint64
		found := false
		s.arena.Visit(func(f *codecache.Fragment) bool {
			if f.Undeletable {
				if off, ok := s.arena.Offset(f.ID); ok && off+f.Size > newCapacity {
					pinnedID, found = f.ID, true
					return false
				}
			}
			return true
		})
		if !found {
			return
		}
		_, _ = s.arena.Delete(pinnedID, true)
	}
}

// WindowHits returns the hits scored since the last ResetWindow.
func (s *Shadow) WindowHits() uint64 { return s.hits }

// TotalHits returns the hits scored over the shadow's whole lifetime.
func (s *Shadow) TotalHits() uint64 { return s.totalHits }

// TotalProbes returns the probes seen over the shadow's whole lifetime.
func (s *Shadow) TotalProbes() uint64 { return s.totalProbes }

// ResetWindow zeroes the window counters at an epoch boundary.
func (s *Shadow) ResetWindow() { s.hits, s.probes = 0, 0 }
