package dbt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// newSessionSystem builds a system over a shared tier big enough that
// capacity eviction never interferes with the ownership lifecycle under
// test.
func newSessionSystem(t *testing.T, keepWarm bool) (*System, *core.SharedPersistent) {
	t.Helper()
	sp := core.NewSharedPersistent(1<<20, nil, nil)
	sys := NewSystem(sp)
	sys.SetKeepWarm(keepWarm)
	return sys, sp
}

func TestSessionPublishAdoptDrain(t *testing.T) {
	sys, sp := newSessionSystem(t, false)

	s1, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID() == s2.ID() || s1.ID() == KeepWarmOwner || s2.ID() == KeepWarmOwner {
		t.Fatalf("session IDs not unique: %d, %d", s1.ID(), s2.ID())
	}
	if got := sys.Sessions(); got != 2 {
		t.Fatalf("Sessions() = %d, want 2", got)
	}

	id, err := s1.Publish(0, 128, 7, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("Publish assigned ID 0")
	}
	// Re-publication under the same ID merges rather than duplicating.
	if id2, err := s1.Publish(id, 128, 7, 0x4000); err != nil || id2 != id {
		t.Fatalf("re-publish = (%d, %v), want (%d, nil)", id2, err, id)
	}

	// Size mismatch must not adopt: same identity, different build.
	if _, ok := s2.Adopt(7, 0x4000, 256); ok {
		t.Fatal("adopted a trace with mismatched size")
	}
	got, ok := s2.Adopt(7, 0x4000, 128)
	if !ok || got != id {
		t.Fatalf("Adopt = (%d, %v), want (%d, true)", got, ok, id)
	}
	if n := sp.Owners(id); n != 2 {
		t.Fatalf("owners = %d, want 2", n)
	}

	// First owner leaves: the trace survives on the second owner's ref.
	if drained := s1.Close(); drained != 0 {
		t.Fatalf("s1.Close drained %d, want 0 (s2 still owns)", drained)
	}
	if !sp.Contains(id) {
		t.Fatal("trace drained while still owned")
	}
	// Last owner leaves: owner-aware drain.
	if drained := s2.Close(); drained != 1 {
		t.Fatalf("s2.Close drained %d, want 1", drained)
	}
	if sp.Contains(id) {
		t.Fatal("trace resident after its last owner closed")
	}
	if st := sp.Stats(); st.Drained != 1 {
		t.Fatalf("shared Drained = %d, want 1", st.Drained)
	}
	if got := sys.Sessions(); got != 0 {
		t.Fatalf("Sessions() after closes = %d, want 0", got)
	}
	// Close is idempotent.
	if drained := s2.Close(); drained != 0 {
		t.Fatalf("second Close drained %d, want 0", drained)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionKeepWarmSurvivesTeardown(t *testing.T) {
	sys, sp := newSessionSystem(t, true)

	s1, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Publish(0, 64, 3, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.Owners(id); n != 2 { // session + keep-warm
		t.Fatalf("owners = %d, want 2", n)
	}
	if drained := s1.Close(); drained != 0 {
		t.Fatalf("Close drained %d, want 0 under keep-warm", drained)
	}
	if !sp.Contains(id) {
		t.Fatal("keep-warm trace drained at session teardown")
	}

	// A later session adopts it warm.
	s2, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Adopt(3, 0x100, 64); !ok || got != id {
		t.Fatalf("warm adopt = (%d, %v), want (%d, true)", got, ok, id)
	}
	s2.Close()
	if !sp.Contains(id) {
		t.Fatal("keep-warm trace drained after adopter left")
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLogUnmapReleasesModule(t *testing.T) {
	sys, sp := newSessionSystem(t, false)
	s1, _ := sys.OpenSession()
	s2, _ := sys.OpenSession()
	idA, err := s1.Publish(0, 32, 1, 0x10)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s1.Publish(0, 32, 2, 0x20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Adopt(1, 0x10, 32); !ok {
		t.Fatal("adopt failed")
	}
	// s1's workload unmaps module 1: s2 still owns idA, so only s1's ref
	// drops; module 2's trace is untouched.
	if drained := s1.UnmapModule(1); len(drained) != 0 {
		t.Fatalf("UnmapModule drained %d traces, want 0", len(drained))
	}
	if !sp.Contains(idA) || !sp.Contains(idB) {
		t.Fatal("unmap of one owner dropped a shared trace")
	}
	// s2 unmaps it too: last owner, drains.
	if drained := s2.UnmapModule(1); len(drained) != 1 || drained[0].ID != idA {
		t.Fatalf("UnmapModule = %v, want [%d]", drained, idA)
	}
	// Teardown drains the rest.
	if drained := s1.Close(); drained != 1 {
		t.Fatalf("s1.Close drained %d, want 1 (module 2)", drained)
	}
	if sp.Contains(idB) {
		t.Fatal("module 2 trace survived its owner's teardown")
	}
	s2.Close()
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSessionRequiresSharedTier(t *testing.T) {
	sys := NewSystem(nil)
	if _, err := sys.OpenSession(); err == nil {
		t.Fatal("OpenSession succeeded without a shared tier")
	}
}

// TestProcessClose exercises the engine-level half of session teardown: a
// process that leaves the system releases its shared-tier references
// (owner-aware) and disappears from the process list. The run is capped
// mid-flight so it ends with live shared traces (the program's own unload
// syscall never executes).
func TestProcessClose(t *testing.T) {
	img := buildPluginHotProgram(t)
	traceSize := maxTraceSize(t, img)
	sys, sp := sharedSystem(t, img, 2, traceSize, nil, nil)

	procs := sys.Procs()
	guests := []Guest{&VMGuest{M: vm.New(img)}, &VMGuest{M: vm.New(img)}}
	if err := sys.RunRoundRobin(guests, 64, 0, 2000); err != nil {
		t.Fatal(err)
	}
	if sp.Used() == 0 {
		t.Fatal("capped run published nothing to the shared tier")
	}

	procs[0].Close()
	if got := len(sys.Procs()); got != 1 {
		t.Fatalf("procs after Close = %d, want 1", got)
	}
	// Traces the second process owns must survive the first's departure.
	for _, f := range sp.Fragments() {
		if n := sp.Owners(f.ID); n == 0 {
			t.Fatalf("trace %d left ownerless but resident after first Close", f.ID)
		}
	}

	procs[1].Close()
	if got := len(sys.Procs()); got != 0 {
		t.Fatalf("procs after both Closes = %d, want 0", got)
	}
	// Every shared trace was owned by a process, so the tier drained empty.
	if used := sp.Used(); used != 0 {
		t.Fatalf("shared tier holds %d bytes after every owner closed", used)
	}
	if err := sp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
