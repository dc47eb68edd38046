package policy

import (
	"strings"
	"testing"
)

func TestRegistryParseNamesAndAliases(t *testing.T) {
	cases := []struct {
		spec string
		name string // Local.Name() of the built instance
	}{
		{"pseudo-circular", "pseudo-circular"},
		{"circ", "pseudo-circular"},
		{"lru", "lru"},
		{"trrip", "trrip"},
		{"flush", "flush-when-full"},
		{"preflush", "preemptive-flush"},
		{"cff", "circular-first-fit"},
	}
	for _, c := range cases {
		fac, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := fac.New().Name(); got != c.name {
			t.Errorf("Parse(%q).New().Name() = %q, want %q", c.spec, got, c.name)
		}
	}
}

func TestRegistryParseCanonicalizesSpec(t *testing.T) {
	fac, err := Parse("circ")
	if err != nil {
		t.Fatal(err)
	}
	if fac.Spec() != "pseudo-circular" {
		t.Errorf("Spec() = %q, want canonical name", fac.Spec())
	}
	fac, err = Parse("trrip:cold=5")
	if err != nil {
		t.Fatal(err)
	}
	if fac.Spec() != "trrip:cold=5" {
		t.Errorf("Spec() = %q, want parameters preserved", fac.Spec())
	}
	// Re-parsing a canonical spec must round-trip.
	again, err := Parse(fac.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if again.Spec() != fac.Spec() {
		t.Errorf("re-parse changed spec: %q vs %q", again.Spec(), fac.Spec())
	}
}

func TestRegistryFactoryInstancesAreFresh(t *testing.T) {
	fac, err := Parse("lru")
	if err != nil {
		t.Fatal(err)
	}
	if fac.New() == fac.New() {
		t.Error("factory returned the same instance twice; policies are stateful and must be private")
	}
}

func TestRegistryParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                    // empty name
		"nosuch",              // unknown policy
		"lru:foo=1",           // unknown parameter
		"trrip:nope=3",        // unknown parameter on a parameterized policy
		"trrip:cold",          // malformed (no value)
		"trrip:=4",            // malformed (no key)
		"trrip:cold=x",        // non-numeric value
		"trrip:cold=4,cold=5", // duplicate key
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	// Out-of-range values are refused, naming the parameter, instead of
	// crashing the replay (an empty or negative window) or wrapping through
	// a narrowing conversion (an RRPV above 255).
	for _, c := range []struct{ spec, param string }{
		{"preemptive-flush:window=0", "window"},
		{"preflush:window=9223372036854775808", "window"},
		{"preemptive-flush:window=18446744073709551615", "window"},
		{"trrip:max=263", "max"},
		{"trrip:cold=256", "cold"},
		{"trrip:warm=1000", "warm"},
	} {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want a range error", c.spec)
		} else if !strings.Contains(err.Error(), c.param+"=") {
			t.Errorf("Parse(%q) = %v, want the error to name %s", c.spec, err, c.param)
		}
	}
	// The range edges are accepted.
	for _, spec := range []string{"preemptive-flush:window=1", "preflush:window=9223372036854775807", "trrip:max=255,cold=255,warm=255"} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}

func TestRegistryListAndDescribe(t *testing.T) {
	infos := List()
	if len(infos) < 6 {
		t.Fatalf("registry lists %d policies, want at least 6", len(infos))
	}
	if infos[0].Name != "pseudo-circular" {
		t.Errorf("first listed policy %q, want the paper's stock policy", infos[0].Name)
	}
	desc := Describe()
	for _, in := range infos {
		if !strings.Contains(desc, in.Name) {
			t.Errorf("Describe() missing policy %q", in.Name)
		}
	}
	if !strings.Contains(desc, "auto") {
		t.Error("Describe() missing the auto pseudo-policy")
	}
}
