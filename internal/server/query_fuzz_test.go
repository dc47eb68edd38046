package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"testing"
)

// FuzzSessionQuery fuzzes the session query string through parseParams,
// which reaches the tier-spec, policy and layout parsers: any query it
// accepts must also build a graph spec whose tier fractions are all positive
// and finite, so a malformed shape or a NaN fraction is refused before
// admission rather than after the session has taken a replay slot and read
// its body. Parsing is deterministic: sixteen parses of one query
// must agree on the config, the events flag and the error text, so a query
// with several malformed parameters always names the same one. Configs
// compare with ==, so a NaN that reached one fails the comparison.
func FuzzSessionQuery(f *testing.F) {
	f.Add("tiers=garbage")
	f.Add("tiers=30-10-20-40@1,2&adaptive=1&policy=auto&selepoch=5")
	f.Add("tiers=50@lru-50@trrip&policy=nope")
	f.Add("layout=40-20-40&threshold=3&policy=trrip")
	f.Add("unified=1&layout=nope")
	f.Add("capfrac=0.25&events=1&attrib=1&session=t1")
	f.Add("policy=auto:lru&selepoch=0")
	f.Add("unified=x&attrib=y&events=z&adaptive=w")
	f.Add("aepoch=0&selepoch=x&pressure=2")
	f.Add("capfrac=NaN")
	f.Add("pressure=NaN")
	f.Add("layout=NaN-50-50")
	f.Add("tiers=NaN-50-50")
	f.Add("tiers=NaN")
	f.Fuzz(func(t *testing.T, raw string) {
		type parsed struct {
			cfg    SessionConfig
			events bool
			err    string
		}
		parse := func() (parsed, error) {
			cfg, events, err := parseParams(&http.Request{URL: &url.URL{RawQuery: raw}})
			return parsed{cfg, events, fmt.Sprint(err)}, err
		}
		first, err := parse()
		for i := 1; i < 16; i++ {
			if again, _ := parse(); again != first {
				t.Fatalf("parse %d of %q differs:\n  first: %+v\n  now:   %+v", i+1, raw, first, again)
			}
		}
		if err != nil {
			return
		}
		spec, err := first.cfg.GraphSpec(1<<20, false)
		if err != nil {
			t.Fatalf("parseParams accepted %q, but its spec does not build: %v", raw, err)
		}
		for i, tier := range spec.Tiers {
			if !(tier.Frac > 0) || math.IsInf(tier.Frac, 0) {
				t.Fatalf("parseParams accepted %q with tier %d fraction %v", raw, i, tier.Frac)
			}
		}
	})
}
