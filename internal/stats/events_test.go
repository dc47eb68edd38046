package stats

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestTallyFoldMatchesCounter feeds one process's random event stream to an
// EventCounter directly and to a Tally folded into a second counter at
// random points: every count the counter answers for must agree, including
// progress events (never counted), out-of-range kinds and levels, and a zero
// From, which counts at LevelUnified.
func TestTallyFoldMatchesCounter(t *testing.T) {
	for _, proc := range []int{0, 7, 67} {
		rng := rand.New(rand.NewSource(int64(proc) + 1))
		direct, folded := NewEventCounter(), NewEventCounter()
		var tally Tally
		for i := 0; i < 5000; i++ {
			e := obs.Event{
				Kind: obs.Kind(rng.Intn(obs.NumKinds + 1)),
				Size: uint64(rng.Intn(4096)),
				From: obs.Level(rng.Intn(obs.NumLevels+2) - 1),
				To:   obs.Level(rng.Intn(obs.NumLevels+2) - 1),
				Proc: proc,
			}
			if rng.Intn(4) == 0 {
				e.From = 0
			}
			direct.Observe(e)
			tally.Add(&e)
			if rng.Intn(300) == 0 {
				tally.Fold(folded)
			}
		}
		tally.Fold(folded)
		tally.Fold(folded) // a second fold of an empty tally adds nothing
		for k := obs.Kind(0); int(k) <= obs.NumKinds; k++ {
			if a, b := direct.Count(k), folded.Count(k); a != b {
				t.Errorf("proc %d: Count(%v) = %d direct, %d folded", proc, k, a, b)
			}
			if a, b := direct.Bytes(k), folded.Bytes(k); a != b {
				t.Errorf("proc %d: Bytes(%v) = %d direct, %d folded", proc, k, a, b)
			}
			for l := obs.LevelNone; int(l) <= obs.NumLevels; l++ {
				if a, b := direct.CountAtLevel(k, l), folded.CountAtLevel(k, l); a != b {
					t.Errorf("proc %d: CountAtLevel(%v, %v) = %d direct, %d folded", proc, k, l, a, b)
				}
			}
		}
		if direct.CountAtLevel(obs.KindEvict, obs.LevelUnified) == 0 {
			t.Errorf("proc %d: no evictions counted at the zero level", proc)
		}
	}
}
