package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// runMainEnv, when set in the environment, makes the test binary behave as
// gencached itself: the value holds the command-line arguments, one per
// line. The serve test re-executes its own binary this way, so it drives
// the real daemon: flags, signal handling, drain and snapshot.
const runMainEnv = "GENCACHED_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"gencached"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one running `gencached serve` process.
type daemon struct {
	cmd *exec.Cmd
	log bytes.Buffer // stderr; read only after the process exits
	c   *client.Client
}

// startDaemon launches `gencached serve` on an ephemeral loopback port with
// the given snapshot path and waits for it to publish its address.
func startDaemon(t *testing.T, snapshot string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := []string{"serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-snapshot", snapshot}
	d := &daemon{cmd: exec.Command(os.Args[0])}
	d.cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(args, "\n"))
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if addr, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(addr, []byte("\n")) {
			d.c = client.New("http://" + strings.TrimSpace(string(addr)))
			return d
		}
	}
	t.Fatal("daemon never published its address")
	return nil
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "clean shutdown" log line written after the snapshot.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v\n%s", err, d.log.String())
	}
	if !strings.Contains(d.log.String(), "gencached: clean shutdown") {
		t.Fatalf("daemon log has no clean-shutdown line:\n%s", d.log.String())
	}
}

// TestServeRestart drives the daemon's whole lifecycle: sessions verified
// against offline replay, SIGTERM drain to a one-file snapshot, and a warm
// restart over that file whose sessions adopt the restored traces.
func TestServeRestart(t *testing.T) {
	logs := make(map[string][]byte)
	offline := make(map[string]api.SessionResult)
	for _, bench := range []string{"word", "gzip"} {
		data, err := workload.SyntheticLog(bench, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if offline[bench], err = server.OfflineReplay(server.SessionConfig{}, nil, data); err != nil {
			t.Fatal(err)
		}
		logs[bench] = data
	}
	session := func(d *daemon, bench string) api.SessionResult {
		t.Helper()
		res, err := d.c.Session(context.Background(), client.SessionOptions{}, bytes.NewReader(logs[bench]))
		if err != nil {
			t.Fatal(err)
		}
		if !server.ResultsEquivalent(res, offline[bench]) {
			t.Errorf("%s session diverges from offline replay:\n  offline: %+v\n  served:  %+v", bench, offline[bench], res)
		}
		return res
	}

	snapDir := t.TempDir()
	snapshot := filepath.Join(snapDir, "tier.ccpersist")
	cold := startDaemon(t, snapshot)
	for _, bench := range []string{"word", "gzip", "word", "gzip"} {
		session(cold, bench)
	}
	cold.stop(t)
	if entries, err := os.ReadDir(snapDir); err != nil || len(entries) != 1 || entries[0].Name() != "tier.ccpersist" {
		t.Fatalf("snapshot directory after shutdown: %v (%v), want only tier.ccpersist", entries, err)
	}

	warm := startDaemon(t, snapshot)
	h, err := warm.c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.WarmRestored == 0 {
		t.Error("restarted daemon restored nothing from its snapshot")
	}
	if res := session(warm, "gzip"); res.Shared.Adoptions == 0 {
		t.Error("session on the restarted daemon adopted nothing")
	}
	warm.stop(t)
}
