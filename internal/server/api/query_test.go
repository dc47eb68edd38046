package api

import (
	"fmt"
	"math"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSessionConfigShapes: the tier string is the one spelling of a cache
// shape. The zero configuration is Figure 9's best layout, "100" is the
// unified baseline, and the Figure 9 layouts' tier strings build their
// presets.
func TestSessionConfigShapes(t *testing.T) {
	const capacity = 1 << 20
	for _, c := range []struct {
		tiers string
		want  core.GraphSpec
	}{
		{"", core.Layout451045Threshold1(capacity)},
		{"100", core.UnifiedSpec(capacity)},
		{"45-10-45@1", core.Layout451045Threshold1(capacity)},
		{"10-45-45@10", core.Layout104545Threshold10(capacity)},
	} {
		spec, err := SessionConfig{Tiers: c.tiers}.GraphSpec(capacity, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, c.want) {
			t.Errorf("tiers %q: spec %+v, want %+v", c.tiers, spec, c.want)
		}
	}
	// The 33-33-33 layout splits into exact thirds, which no percentage can
	// spell: p/100 never rounds to the float nearest 1/3. Its tier string
	// builds the preset with each fraction within an ulp.
	third := strconv.FormatFloat(100.0/3, 'g', -1, 64)
	spec, err := SessionConfig{Tiers: third + "-" + third + "-" + third + "@10"}.GraphSpec(capacity, false)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Layout433Threshold10(capacity)
	for i := range spec.Tiers {
		if math.Abs(spec.Tiers[i].Frac-want.Tiers[i].Frac) > 1e-16 {
			t.Errorf("33-33-33 tier %d fraction %v, want %v", i, spec.Tiers[i].Frac, want.Tiers[i].Frac)
		}
		spec.Tiers[i].Frac = want.Tiers[i].Frac
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("33-33-33@10: spec %+v, want %+v", spec, want)
	}
}

// FuzzSessionQuery fuzzes the session query codec. Any query ParseQuery
// accepts must build a graph spec whose tier fractions are all positive and
// finite, so a malformed shape or a NaN fraction is refused before admission
// rather than after the session has taken a replay slot and read its body.
// A query naming a parameter no configuration writes (a retired spelling
// such as unified=1, or a typo) is refused, and the error names the first
// such parameter in sorted order. Parsing is deterministic: sixteen parses
// of one query must agree on the config, the events flag and the error
// text, so a query with several malformed parameters always names the same
// one. An accepted config, encoded by SessionConfig.Query (the client's
// encoder) and parsed again, must come back unchanged, so every knob a Go
// client sets reaches the server. Configs compare with ==, so a NaN that
// reached one fails the comparison.
func FuzzSessionQuery(f *testing.F) {
	for _, seed := range []string{
		"tiers=garbage",
		"tiers=30-10-20-40@1,2&adaptive=1&policy=auto&selepoch=5",
		"tiers=50@lru-50@trrip&policy=nope",
		"tiers=40-20-40@3&policy=trrip",
		"tiers=100&policy=nope",
		"capfrac=0.25&events=1&attrib=1&session=t1",
		"policy=auto:lru&selepoch=0",
		"tiers=100@circ&attrib=y&events=z&adaptive=w",
		"aepoch=0&selepoch=x&pressure=2",
		"capfrac=NaN",
		"pressure=NaN",
		"tiers=NaN-50-50@1",
		"tiers=NaN-50-50",
		"tiers=NaN",
		"capacity=4096&tiers=45-10-45@7&selepoch=9&aepoch=3&pressure=0.1&adaptive=true&session=a%20b",
		"unified=1&tiers=45-10-45@1",
	} {
		f.Add(seed)
	}
	// known holds every parameter a session may carry: the ones Query writes
	// for a configuration with every knob set, and events.
	known := SessionConfig{
		CapacityBytes: 1, CapFrac: 1, Tiers: "100", Policy: "lru", SelEpoch: 1,
		Adaptive: true, AdaptEpoch: 1, Pressure: 1, Attrib: true, Tenant: "t",
	}.Query()
	known.Set(ParamEvents, "1")
	f.Fuzz(func(t *testing.T, raw string) {
		type parsed struct {
			cfg    SessionConfig
			events bool
			err    string
		}
		parse := func() (parsed, error) {
			cfg, events, err := ParseQuery((&url.URL{RawQuery: raw}).Query())
			return parsed{cfg, events, fmt.Sprint(err)}, err
		}
		first, err := parse()
		for i := 1; i < 16; i++ {
			if again, _ := parse(); again != first {
				t.Fatalf("parse %d of %q differs:\n  first: %+v\n  now:   %+v", i+1, raw, first, again)
			}
		}
		var unknown []string
		for k := range (&url.URL{RawQuery: raw}).Query() {
			if !known.Has(k) {
				unknown = append(unknown, k)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(unknown[0])) {
				t.Fatalf("%q names unknown parameter %q, but ParseQuery returned %v", raw, unknown[0], err)
			}
		}
		if err != nil {
			return
		}
		enc := first.cfg.Query().Encode()
		back, _, err := ParseQuery((&url.URL{RawQuery: enc}).Query())
		if err != nil || back != first.cfg {
			t.Fatalf("config of %q does not round-trip through %q: %v\n  parsed:  %+v\n  again:   %+v", raw, enc, err, first.cfg, back)
		}
		spec, err := first.cfg.GraphSpec(1<<20, false)
		if err != nil {
			t.Fatalf("ParseQuery accepted %q, but its spec does not build: %v", raw, err)
		}
		for i, tier := range spec.Tiers {
			if !(tier.Frac > 0) || math.IsInf(tier.Frac, 0) {
				t.Fatalf("ParseQuery accepted %q with tier %d fraction %v", raw, i, tier.Frac)
			}
		}
	})
}
