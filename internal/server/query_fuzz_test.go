package server

import (
	"fmt"
	"net/http"
	"net/url"
	"testing"
)

// FuzzSessionQuery fuzzes the session query string through parseParams,
// which reaches the tier-spec, policy and layout parsers: any query it
// accepts must also build a graph spec, so a malformed shape is refused
// before admission rather than after the session has taken a replay slot
// and read its body. Parsing is deterministic: sixteen parses of one query
// must agree on the config, the events flag and the error text, so a query
// with several malformed parameters always names the same one.
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
	f.Fuzz(func(t *testing.T, raw string) {
		// Parses are compared as text: a NaN float parses, and NaN != NaN.
		parse := func() (SessionConfig, string, error) {
			cfg, events, err := parseParams(&http.Request{URL: &url.URL{RawQuery: raw}})
			return cfg, fmt.Sprintf("%+v events=%v err=%v", cfg, events, err), err
		}
		cfg, first, err := parse()
		for i := 1; i < 16; i++ {
			if _, again, _ := parse(); again != first {
				t.Fatalf("parse %d of %q differs:\n  first: %s\n  now:   %s", i+1, raw, first, again)
			}
		}
		if err != nil {
			return
		}
		if _, err := cfg.GraphSpec(1<<20, false); err != nil {
			t.Fatalf("parseParams accepted %q, but its spec does not build: %v", raw, err)
		}
	})
}
