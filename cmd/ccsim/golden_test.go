package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/workload"
)

// update rewrites testdata/golden.json from the current build instead of
// checking against it. Record only from a commit whose outputs are trusted.
var update = flag.Bool("update", false, "rewrite testdata/golden.json")

// runMainEnv, when set in the environment, makes the test binary behave as
// ccsim itself: the value holds the command-line arguments, one per line.
// The golden test re-executes its own binary this way, so the bytes it
// hashes are exactly what the command prints.
const runMainEnv = "CCSIM_GOLDEN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"ccsim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenScale sizes the generated mpeg log: about 70k events, over three
// progress strides, so mid-replay progress events are part of every stream.
const goldenScale = 0.01

// TestGoldenOutputs pins every replay surface to recorded digests: ccsim's
// report and -events JSONL for eight flag sets, and one served session in each
// response framing (events=1 NDJSON, JSON, binary stats) on the same log.
// Any change to a counter, an event, or its position in a stream shows up as
// a digest mismatch.
func TestGoldenOutputs(t *testing.T) {
	dir := t.TempDir()
	logPath, logData := goldenLog(t, dir)
	got := make(map[string]string)

	runs := []struct {
		name  string
		flags []string
	}{
		{"stock", nil},
		{"unified", []string{"-unified"}},
		{"tiers-adaptive", []string{"-tiers", "30-10-20-40@1,2", "-adaptive", "-epoch", "512"}},
		{"policy-auto", []string{"-policy", "auto", "-selepoch", "256"}},
		{"why", []string{"-why"}},
		{"procs2", []string{"-procs", "2"}},
		{"procs4", []string{"-procs", "4"}},
		{"adaptive", []string{"-adaptive", "-epoch", "512"}},
	}
	for _, r := range runs {
		events := filepath.Join(dir, r.name+".jsonl")
		args := append([]string{"-log", logPath, "-events", events}, r.flags...)
		stdout, stderr, code := ccsim(t, args...)
		if code != 0 {
			t.Fatalf("ccsim %s: exit status %d\n%s", strings.Join(r.flags, " "), code, stderr)
		}
		jsonl, err := os.ReadFile(events)
		if err != nil {
			t.Fatal(err)
		}
		if r.name == "stock" {
			requireProgress(t, jsonl)
		}
		got["ccsim/"+r.name+"/stdout"] = digest(stdout)
		got["ccsim/"+r.name+"/events"] = digest(jsonl)
	}

	// One in-process server, three sequential sessions: the later ones adopt
	// what the first published, so the shared-tier bookkeeping is pinned too.
	srv, err := server.New(server.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, s := range []struct {
		name, query, accept string
	}{
		{"ndjson", "?" + api.ParamEvents + "=1", ""},
		{"json", "", ""},
		{"binary", "", api.StatsContentType},
	} {
		req := httptest.NewRequest(http.MethodPost, api.SessionsPath+s.query, bytes.NewReader(logData))
		if s.accept != "" {
			req.Header.Set("Accept", s.accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("session %s: status %d: %s", s.name, rec.Code, rec.Body.String())
		}
		got["server/"+s.name] = digest(rec.Body.Bytes())
	}

	path := filepath.Join("testdata", "golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d outputs hashed, %d recorded", len(got), len(want))
	}
}

// TestRefusedFlagCombinations checks that ccsim refuses a bad flag value or
// combination before it opens the log: it exits 2, prints nothing on stdout,
// not even the log header, and creates no profile.
func TestRefusedFlagCombinations(t *testing.T) {
	requireRefused(t, [][]string{
		{"-why", "-unified"},
		{"-procs", "2", "-unified"},
		{"-procs", "2", "-tiers", "100"},
		{"-procs", "2", "-tiers", "50@lru-50"},
		{"-procs", "0"},
		{"-capfrac", "NaN"},
		{"-capfrac", "-1"},
		{"-capfrac", "0"},
	})
}

// TestRefusedTierFractions checks that a bad tier string in -tiers is
// refused the same way as any other bad flag value. NaN compares false with
// everything, so only checks written as acceptances refuse it.
func TestRefusedTierFractions(t *testing.T) {
	requireRefused(t, [][]string{
		{"-tiers", "40-50-50@1"},
		{"-tiers", "NaN-50-50"},
		{"-tiers", "NaN-50-50@1"},
		{"-tiers", "45-10-45@x"},
	})
}

// TestReadmeCommands runs every ccsim command line README.md shows, with
// its comment and any pipe cut off and -log pointed at a missing file, and
// checks that ccsim accepts its flags: it may fail to open the log, but it
// must not refuse the invocation with exit status 2.
func TestReadmeCommands(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.cclog")
	const prefix = "go run ./cmd/ccsim"
	n := 0
	for _, line := range strings.Split(string(readme), "\n") {
		cmd, ok := strings.CutPrefix(strings.TrimSpace(line), prefix)
		if !ok {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, "#")
		cmd, _, _ = strings.Cut(cmd, "|")
		args := strings.Fields(cmd)
		for i := range args {
			if i > 0 && args[i-1] == "-log" {
				args[i] = missing
			}
		}
		n++
		if _, stderr, code := ccsim(t, args...); code == 2 {
			t.Errorf("README line %q: ccsim refused its flags (exit 2)\n%s", strings.TrimSpace(line), stderr)
		}
	}
	if n == 0 {
		t.Fatalf("README.md shows no %q command", prefix)
	}
}

// requireRefused runs ccsim once per flag set, with -cpuprofile, and checks
// that each run exits 2 with nothing on stdout and no profile written.
func requireRefused(t *testing.T, cases [][]string) {
	t.Helper()
	dir := t.TempDir()
	logPath, _ := goldenLog(t, dir)
	profile := filepath.Join(dir, "cpu.pprof")
	for _, flags := range cases {
		stdout, stderr, code := ccsim(t, append([]string{"-log", logPath, "-cpuprofile", profile}, flags...)...)
		if code != 2 || len(stdout) != 0 {
			t.Errorf("ccsim %s: exit status %d, want 2 with nothing on stdout\nstdout:\n%s\nstderr:\n%s",
				strings.Join(flags, " "), code, stdout, stderr)
		}
		if _, err := os.Stat(profile); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("ccsim %s: refused, but created its CPU profile (stat: %v)", strings.Join(flags, " "), err)
			os.Remove(profile)
		}
	}
}

// goldenLog writes the generated mpeg log into dir and returns its path and
// bytes.
func goldenLog(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	data, err := workload.SyntheticLog("mpeg", goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "mpeg.cclog")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// ccsim re-executes the test binary as ccsim with args and returns what it
// printed and its exit status.
func ccsim(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
	}
	return out.Bytes(), errOut.Bytes(), cmd.ProcessState.ExitCode()
}

// requireProgress checks that the stream carries progress events before its
// end, so the digests cover stride-boundary positions and not only the final
// completion event.
func requireProgress(t *testing.T, jsonl []byte) {
	t.Helper()
	mid := 0
	for _, line := range bytes.Split(jsonl, []byte("\n")) {
		var rec eventRecord
		if len(line) == 0 || json.Unmarshal(line, &rec) != nil || rec.Kind != "progress" {
			continue
		}
		if rec.Done < rec.Total && rec.Done%sim.ProgressStride == 0 {
			mid++
		}
	}
	if mid < 3 {
		t.Fatalf("events stream has %d mid-replay progress events, want at least 3", mid)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
