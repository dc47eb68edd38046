package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update rewrites testdata/golden.json from the current build instead of
// checking against it. Record only from a commit whose outputs are trusted.
var update = flag.Bool("update", false, "rewrite testdata/golden.json")

// runMainEnv, when set in the environment, makes the test binary behave as
// gencache itself: the value holds the command-line arguments, one per line.
// The golden test re-executes its own binary this way, so the bytes it
// hashes are exactly what the command prints.
const runMainEnv = "GENCACHE_GOLDEN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"gencache"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenArgs runs every study on three small logs: gzip (SPECint), applu
// (SPECfp) and solitaire (interactive) fill all nineteen sections, and give
// the two suites' averages different values.
var goldenArgs = []string{"-scale", "0.01", "-bench", "gzip,solitaire,applu", "-run", "all"}

// TestGoldenOutputs pins the text of every gencache study to recorded
// per-section digests, at two worker-pool sizes: the run at -parallel 1 and
// the run at -parallel 4 must print the same bytes, and those bytes must
// match testdata/golden.json.
func TestGoldenOutputs(t *testing.T) {
	var got map[string]string
	for _, parallel := range []string{"1", "4"} {
		stdout, stderr, code := gencache(t, append(goldenArgs, "-parallel", parallel)...)
		if code != 0 {
			t.Fatalf("gencache -parallel %s: exit status %d\n%s", parallel, code, stderr)
		}
		sections := sectionDigests(stdout)
		if got == nil {
			got = sections
			continue
		}
		for name, d := range got {
			if sections[name] != d {
				t.Errorf("%s: -parallel %s digest %s, -parallel 1 digest %s", name, parallel, sections[name], d)
			}
		}
		if len(sections) != len(got) {
			t.Errorf("-parallel %s printed %d sections, -parallel 1 printed %d", parallel, len(sections), len(got))
		}
	}

	path := filepath.Join("testdata", "golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Errorf("%d sections hashed, %d recorded", len(got), len(want))
	}
}

// sectionDigests splits gencache's report at its "=== title ===" lines and
// hashes each section's body, keyed by title.
func sectionDigests(stdout []byte) map[string]string {
	out := make(map[string]string)
	var title string
	var body bytes.Buffer
	flush := func() {
		if title != "" {
			sum := sha256.Sum256(body.Bytes())
			out[title] = hex.EncodeToString(sum[:])
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(string(stdout), "\n") {
		trimmed := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(trimmed, "=== ") && strings.HasSuffix(trimmed, " ===") {
			flush()
			title = strings.TrimSuffix(strings.TrimPrefix(trimmed, "=== "), " ===")
			continue
		}
		body.WriteString(line)
	}
	flush()
	return out
}

// gencache re-executes the test binary as gencache with args and returns
// what it printed and its exit status.
func gencache(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
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
