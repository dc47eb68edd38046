package server

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestSessionShare drives sessions' shares of the shared tier (adopt,
// promote, unmap, close) directly against srv.Shared(), with KeepWarm off
// and on. Module m names the code identity (m, m<<8), m being log-local
// and mapped through the session's module table. After every step, the
// trace published for the step's module must have the step's owner count
// for that KeepWarm setting, 0 meaning it is gone from the tier. A promote
// or adopt must succeed, returning the step's trace ID, exactly when that
// ID is nonzero and the step leaves the trace resident.
func TestSessionShare(t *testing.T) {
	const tooBig = 1 << 30 // bigger than the whole tier
	type step struct {
		sess   int    // the acting session: 0 or 1
		op     string // "promote", "adopt", "unmap" or "close"
		mod    uint16
		size   uint64 // promote and adopt
		id     uint64 // promote and adopt: the trace ID returned; 0 = refused
		owners [2]int // owners of mod's trace afterwards, KeepWarm off and on
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"a publish gets an ID and a re-publish merges", []step{
			{0, "promote", 1, 64, 1, [2]int{1, 2}},
			{0, "promote", 1, 64, 1, [2]int{1, 2}},
		}},
		{"a refused publish spends its ID", []step{
			{0, "promote", 1, tooBig, 0, [2]int{0, 0}},
			{0, "promote", 2, 64, 2, [2]int{1, 2}},
		}},
		{"a size mismatch refuses adoption and a match adds an owner", []step{
			{0, "promote", 1, 64, 1, [2]int{1, 2}},
			{1, "adopt", 1, 128, 0, [2]int{1, 2}},
			{1, "adopt", 1, 64, 1, [2]int{2, 3}},
		}},
		{"an unmap drops only the session's own references", []step{
			{0, "promote", 1, 64, 1, [2]int{1, 2}},
			{0, "promote", 2, 64, 2, [2]int{1, 2}},
			{1, "adopt", 1, 64, 1, [2]int{2, 3}},
			{0, "unmap", 1, 0, 0, [2]int{1, 2}},
			{1, "unmap", 2, 0, 0, [2]int{1, 2}},
			{1, "unmap", 1, 0, 0, [2]int{0, 1}},
		}},
		{"close drains owner-aware", []step{
			{0, "promote", 1, 64, 1, [2]int{1, 2}},
			{1, "adopt", 1, 64, 1, [2]int{2, 3}},
			{0, "close", 1, 0, 0, [2]int{1, 2}},
			{1, "close", 1, 0, 0, [2]int{0, 1}},
		}},
		{"keep-warm traces survive teardown and are adopted warm", []step{
			{0, "promote", 1, 64, 1, [2]int{1, 2}},
			{0, "close", 1, 0, 0, [2]int{0, 1}},
			{1, "adopt", 1, 64, 1, [2]int{0, 2}},
			{1, "close", 1, 0, 0, [2]int{0, 1}},
		}},
	} {
		for kw, keepWarm := range []bool{false, true} {
			srv, err := New(Config{SharedCapacity: 1 << 20, KeepWarm: keepWarm, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			sp := srv.Shared()
			// Session IDs start at 1: owner 0 is the keep-warm owner's.
			sessions := []*sessionRun{newSessionRun(srv), newSessionRun(srv)}
			for i, sr := range sessions {
				if sr.id != i+1 {
					t.Fatalf("session %d opened with ID %d, want %d", i, sr.id, i+1)
				}
			}
			gids := make(map[uint16]uint64)
			for i, st := range tc.steps {
				sr := sessions[st.sess]
				m := sr.module(st.mod)
				head := uint64(st.mod) << 8
				var id uint64
				ok := false
				switch st.op {
				case "promote":
					id, err = sr.promote(m, gids[st.mod], head, st.size)
					ok = err == nil
				case "adopt":
					id, ok = sr.adopt(m, head, st.size)
				case "unmap":
					sr.unmap(m)
				case "close":
					sr.close()
				}
				if st.op == "promote" || st.op == "adopt" {
					if want := st.id != 0 && st.owners[kw] > 0; ok != want || ok && id != st.id {
						t.Errorf("%s, keep-warm %v, step %d: %s = (%d, %v), want ID %d, success %v",
							tc.name, keepWarm, i, st.op, id, ok, st.id, want)
					}
					if ok {
						gids[st.mod] = id
					}
				}
				gid := gids[st.mod]
				if got := sp.Owners(gid); got != st.owners[kw] || sp.Contains(gid) != (got > 0) {
					t.Errorf("%s, keep-warm %v, step %d (%s): trace %d has %d owners (resident %v), want %d",
						tc.name, keepWarm, i, st.op, gid, got, sp.Contains(gid), st.owners[kw])
				}
			}
			if err := sp.CheckInvariants(); err != nil {
				t.Errorf("%s, keep-warm %v: %v", tc.name, keepWarm, err)
			}
		}
	}

	// A session's close drains its modules in ascending global module
	// order, whatever order it took them in. Global IDs are handed out in
	// order of first sight, so local modules 3, 1, 4, 2 map to globals 1-4:
	// the session's local order would drain globals 2, 4, 1, 3.
	srv, err := New(Config{SharedCapacity: 1 << 20, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	sr := newSessionRun(srv)
	for i, m := range []uint16{3, 1, 4, 2} {
		if g := sr.module(m).gmod; g != uint16(i+1) {
			t.Fatalf("local module %d maps to global %d, want %d", m, g, i+1)
		}
	}
	for _, m := range []uint16{2, 4, 1, 3} {
		if _, err := sr.promote(sr.module(m), 0, uint64(m)<<8, 64); err != nil {
			t.Fatal(err)
		}
	}
	var drained []uint16
	srv.router.attach(sr.id, obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindUnmap {
			drained = append(drained, e.Module)
		}
	}))
	sr.close()
	if want := []uint16{1, 2, 3, 4}; !slices.Equal(drained, want) {
		t.Errorf("close drained modules %v, want %v", drained, want)
	}
}
