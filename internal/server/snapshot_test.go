package server

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// identity names a shared-tier trace portably — what a restart must
// preserve, whatever trace and module IDs either side assigns.
type identity struct {
	Bench string
	Local uint16
	Head  uint64
	Size  uint32
}

// portable names each of an image's records through its module table.
func portable(t *testing.T, img persist.Image) map[identity]bool {
	t.Helper()
	mods := make(map[uint16]persist.Module, len(img.Modules))
	for _, m := range img.Modules {
		mods[m.ID] = m
	}
	out := make(map[identity]bool, len(img.Records))
	for _, r := range img.Records {
		m, ok := mods[r.Module]
		if !ok {
			t.Fatalf("record %+v: module %d not in the table", r, r.Module)
		}
		out[identity{m.Bench, m.Local, r.HeadAddr, r.Size}] = true
	}
	return out
}

// TestSnapshotOldOrNew: a snapshot is one file, replaced by one rename, so
// whatever a crash leaves of the next one at <path>.tmp — nothing, a byte,
// half, all but a byte, or all of it — a restart restores exactly the last
// committed snapshot. Once SaveSnapshot returns, a restart restores exactly
// the new one and the directory holds nothing else.
func TestSnapshotOldOrNew(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tier.ccpersist")
	start := func() *Server {
		t.Helper()
		s, err := New(Config{SnapshotPath: path, KeepWarm: true, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serve := func(s *Server, bench string) {
		t.Helper()
		data, err := workload.SyntheticLog(bench, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ServeSession(SessionConfig{}, data); err != nil {
			t.Fatal(err)
		}
	}

	srv := start()
	serve(srv, "word")
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	old := portable(t, srv.image(nil))
	serve(srv, "gzip")
	next := srv.image(nil)
	want := portable(t, next)
	if len(want) <= len(old) {
		t.Fatalf("second session added nothing: %d identities, then %d", len(old), len(want))
	}
	var b bytes.Buffer
	if err := persist.Save(&b, next); err != nil {
		t.Fatal(err)
	}
	full := b.Bytes()

	for _, n := range []int{0, 1, len(full) / 2, len(full) - 1, len(full)} {
		if err := os.WriteFile(path+".tmp", full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if got := portable(t, start().image(nil)); !reflect.DeepEqual(got, old) {
			t.Errorf("%d of %d new bytes at .tmp: restored %d identities, want the committed %d",
				n, len(full), len(got), len(old))
		}
	}

	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := portable(t, start().image(nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("after SaveSnapshot: restored %d identities, want %d", len(got), len(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("snapshot directory holds %v, want only %s", names, filepath.Base(path))
	}
}

// TestLongBenchNameStaysLocal: an event log may name its benchmark with up
// to 64 KiB, but the exchange wire and a snapshot's module table carry at
// most 255 bytes. Such a session replays and verifies as usual but shares
// nothing, so the snapshot written after it still loads.
func TestLongBenchNameStaysLocal(t *testing.T) {
	word, err := workload.SyntheticLog("word", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	h, events, err := tracelog.ReadAll(bytes.NewReader(word))
	if err != nil {
		t.Fatal(err)
	}
	h.Benchmark = strings.Repeat("w", 300)
	var data bytes.Buffer
	w, err := tracelog.NewWriter(&data, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	offline, err := OfflineReplay(SessionConfig{}, nil, data.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "tier.ccpersist")
	s, err := New(Config{SnapshotPath: path, KeepWarm: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ServeSession(SessionConfig{}, data.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEquivalent(res, offline) {
		t.Errorf("session diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, res)
	}
	if res.Shared.Published != 0 || s.Shared().Used() != 0 {
		t.Errorf("a non-portable benchmark name reached the shared tier: %+v, %d bytes", res.Shared, s.Shared().Used())
	}
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{SnapshotPath: path, KeepWarm: true, Logf: t.Logf}); err != nil {
		t.Fatalf("restart over the snapshot: %v", err)
	}
}
