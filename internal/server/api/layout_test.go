package api

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestParseLayoutAgreesWithValidate: a layout parses exactly when the spec
// built from its fractions validates, and a refusal names the layout rather
// than leaving core to report a sum the caller never wrote.
func TestParseLayoutAgreesWithValidate(t *testing.T) {
	for _, layout := range []string{
		"45-10-45", "33.3-33.3-33.3", "45-10-45.05", "45-10-44.95",
		"45-10-45.3", "45-10-44.7", "40-50-50",
	} {
		spec := core.GraphSpec{TotalCapacity: 1}
		for _, p := range strings.Split(layout, "-") {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				t.Fatal(err)
			}
			spec.Tiers = append(spec.Tiers, core.TierSpec{Frac: v / 100})
		}
		_, err := ParseLayout(layout)
		verr := spec.Validate()
		if (err == nil) != (verr == nil) {
			t.Errorf("ParseLayout(%q) = %v, but Validate of its fractions = %v", layout, err, verr)
		}
		if err != nil && !strings.Contains(err.Error(), strconv.Quote(layout)) {
			t.Errorf("ParseLayout(%q) refused with %q, which does not name the layout", layout, err)
		}
	}
}
