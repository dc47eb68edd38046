package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestLoadtestRefusesBadConfig checks that `gencached loadtest` refuses a
// session configuration the server would refuse, or a run with no clients,
// before it contacts any server. Nothing listens on the address, so a
// loadtest that got as far as its health check would wait it out and exit 1;
// a refusal exits 2 at once.
func TestLoadtestRefusesBadConfig(t *testing.T) {
	for _, flags := range [][]string{
		{"-tiers", "40-50-50@1"},
		{"-tiers", "NaN-50-50"},
		{"-tiers", "100@nope"},
		{"-capfrac", "0"},
		{"-capfrac", "NaN"},
		{"-clients", "0"},
	} {
		args := append([]string{"loadtest", "-addr", "http://127.0.0.1:1"}, flags...)
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(args, "\n"))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); cmd.ProcessState == nil {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("gencached %s: exit status %d, want 2\nstderr:\n%s", strings.Join(args, " "), code, stderr.String())
		}
	}
}
