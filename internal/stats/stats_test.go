package stats

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/idtab"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean([1 2 3]) != 2")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	if !almost(GeoMean([]float64{2, 8}), 4) {
		t.Errorf("GeoMean([2 8]) = %v, want 4", GeoMean([]float64{2, 8}))
	}
	if !almost(GeoMean([]float64{-1, 0, 2, 8}), 4) {
		t.Error("GeoMean should skip non-positive values")
	}
	if GeoMean([]float64{-1, 0}) != 0 {
		t.Error("GeoMean of all non-positive should be 0")
	}
	if StdDev(nil) != 0 {
		t.Error("StdDev(nil) != 0")
	}
	if !almost(StdDev([]float64{2, 2, 2}), 0) {
		t.Error("StdDev of constants != 0")
	}
	if !almost(StdDev([]float64{1, 3}), 1) {
		t.Errorf("StdDev([1 3]) = %v, want 1", StdDev([]float64{1, 3}))
	}
	if Median(nil) != 0 {
		t.Error("Median(nil) != 0")
	}
	if !almost(Median([]float64{5, 1, 3}), 3) {
		t.Error("Median odd")
	}
	if !almost(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("Median even")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Add(0.05) // bucket 0
	h.Add(0.15) // bucket 1
	h.Add(0.95) // bucket 9
	h.Add(1.5)  // clamped to bucket 9
	h.Add(-0.5) // clamped to bucket 0
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[9] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if !almost(h.Fraction(0), 0.4) {
		t.Errorf("Fraction(0) = %v", h.Fraction(0))
	}
	if !almost(h.FractionBetween(0, 0.2), 0.6) {
		t.Errorf("FractionBetween(0,0.2) = %v", h.FractionBetween(0, 0.2))
	}
	if !almost(h.FractionBetween(0.8, 1.0), 0.4) {
		t.Errorf("FractionBetween(0.8,1) = %v", h.FractionBetween(0.8, 1.0))
	}

	empty := NewHistogram(0, 1, 4)
	if empty.Fraction(0) != 0 || empty.FractionBetween(0, 1) != 0 {
		t.Error("empty histogram fractions should be 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuickHistogramTotal(t *testing.T) {
	// Property: N always equals the sum of bucket counts.
	f := func(vals []float64) bool {
		h := NewHistogram(0, 1, 7)
		for _, v := range vals {
			h.Add(v)
		}
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		return sum == h.N && h.N == uint64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLifetimes(t *testing.T) {
	l := NewLifetimes()
	l.Touch(1, 10) // lives 10..90 of 100 => 0.8
	l.Touch(1, 90)
	l.Touch(2, 50) // lives instant => 0.0
	l.Touch(3, 0)  // lives 0..100 => 1.0
	l.Touch(3, 100)
	l.Touch(3, 40) // out-of-order touch must not shrink the range
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	// Lifetime 0.8 is not strictly greater than hi=0.8, so it counts as mid.
	short, mid, long := l.Fractions(100, 0.2, 0.8)
	if !almost(short, 1.0/3) || !almost(mid, 1.0/3) || !almost(long, 1.0/3) {
		t.Errorf("fractions = %v %v %v", short, mid, long)
	}
	h := l.Histogram(100, 10)
	if h.N != 3 {
		t.Errorf("histogram N = %d", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[8] != 1 || h.Counts[9] != 1 {
		t.Errorf("histogram counts = %v", h.Counts)
	}

	// Degenerate totals.
	if s, m, g := l.Fractions(0, 0.2, 0.8); s != 0 || m != 0 || g != 0 {
		t.Error("Fractions with zero total should be zeros")
	}
	if l.Histogram(0, 10).N != 0 {
		t.Error("Histogram with zero total should be empty")
	}
	if s, m, g := NewLifetimes().Fractions(10, 0.2, 0.8); s != 0 || m != 0 || g != 0 {
		t.Error("Fractions of empty tracker should be zeros")
	}
}

func TestQuickLifetimeBounds(t *testing.T) {
	// Property: every lifetime fraction is within [0, 1] when touches are
	// within [0, total], and short+mid+long == 1 for non-empty trackers.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		l := NewLifetimes()
		total := 1 + r.Float64()*1000
		n := 1 + r.Intn(50)
		for j := 0; j < n; j++ {
			id := uint64(r.Intn(10))
			l.Touch(id, r.Float64()*total)
		}
		s, m, g := l.Fractions(total, 0.2, 0.8)
		if s < 0 || m < 0 || g < 0 || math.Abs(s+m+g-1) > 1e-9 {
			t.Fatalf("fractions %v %v %v do not sum to 1", s, m, g)
		}
		h := l.Histogram(total, 10)
		if int(h.N) != l.Len() {
			t.Fatalf("histogram N %d != tracker len %d", h.N, l.Len())
		}
	}
}

// refLifetimes is the map-backed tracker Lifetimes replaced: one *span per
// trace, created by its first Touch.
type refLifetimes map[uint64]*span

func (r refLifetimes) touch(id uint64, t float64) {
	s := r[id]
	if s == nil {
		s = &span{first: t}
		r[id] = s
	}
	if t > s.last {
		s.last = t
	}
}

func (r refLifetimes) fractions(total, lo, hi float64) (short, mid, long float64) {
	if total <= 0 || len(r) == 0 {
		return 0, 0, 0
	}
	for _, s := range r {
		switch lt := (s.last - s.first) / total; {
		case lt < lo:
			short++
		case lt > hi:
			long++
		default:
			mid++
		}
	}
	n := float64(len(r))
	return short / n, mid / n, long / n
}

// TestLifetimesMatchMapReference replays random touches into Lifetimes and
// into the map-backed reference: touches at time 0, repeated and
// out-of-order touches, and IDs below and past idtab.Dense. Len, every
// histogram bucket and the three fractions must agree exactly.
func TestLifetimesMatchMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		l, ref := NewLifetimes(), refLifetimes{}
		total := 1 + float64(r.Intn(1000))
		for j, n := 0, 1+r.Intn(400); j < n; j++ {
			id := uint64(r.Intn(64))
			switch r.Intn(4) {
			case 0:
				id += idtab.Dense // past the slice: a map entry
			case 1:
				id += uint64(r.Intn(4096))
			}
			at := float64(r.Intn(int(total) + 1))
			if r.Intn(5) == 0 {
				at = 0
			}
			l.Touch(id, at)
			ref.touch(id, at)
		}
		if l.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, reference %d", round, l.Len(), len(ref))
		}
		for _, tot := range []float64{total, 0} {
			h := l.Histogram(tot, 10)
			want := NewHistogram(0, 1, 10)
			if tot > 0 {
				for _, s := range ref {
					want.Add((s.last - s.first) / tot)
				}
			}
			if h.N != want.N || !slices.Equal(h.Counts, want.Counts) {
				t.Fatalf("round %d total %v: histogram %d %v, reference %d %v", round, tot, h.N, h.Counts, want.N, want.Counts)
			}
			s, m, g := l.Fractions(tot, 0.2, 0.8)
			ws, wm, wg := ref.fractions(tot, 0.2, 0.8)
			if s != ws || m != wm || g != wg {
				t.Fatalf("round %d total %v: fractions %v %v %v, reference %v %v %v", round, tot, s, m, g, ws, wm, wg)
			}
		}
	}
}

// TestLifetimesTouchZeroAlloc: once the slice reaches an ID, touching that
// ID or any lower one allocates nothing, first touch or repeat.
func TestLifetimesTouchZeroAlloc(t *testing.T) {
	l := NewLifetimes()
	l.Touch(4095, 1)
	var id uint64
	if n := testing.AllocsPerRun(1000, func() {
		id = id%4095 + 1
		l.Touch(id, float64(id))
	}); n != 0 {
		t.Errorf("Touch allocates %v times per call", n)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("Name", "Value")
	tab.AddRow("gzip", "300")
	tab.AddRow("a-very-long-benchmark-name", "4")
	tab.AddRow("extra", "1", "dropped-cell")
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator wrong: %q", lines[1])
	}
	if strings.Contains(s, "dropped-cell") {
		t.Error("extra cells should be dropped")
	}
	// All lines should align to the same width.
	w := len(lines[0])
	for _, ln := range lines[1:] {
		if len(ln) > w+2 {
			t.Errorf("line overflows header width: %q", ln)
		}
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{500, "500 B"},
		{2048, "2.0 KB"},
		{3 << 20, "3.0 MB"},
	}
	for _, c := range cases {
		if got := FmtBytes(c.n); got != c.want {
			t.Errorf("FmtBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	if FmtPct(0.185) != "18.5%" {
		t.Errorf("FmtPct = %q", FmtPct(0.185))
	}
	if FmtCount(999) != "999" {
		t.Errorf("FmtCount(999) = %q", FmtCount(999))
	}
	if FmtCount(1234567) != "1,234,567" {
		t.Errorf("FmtCount(1234567) = %q", FmtCount(1234567))
	}
	if FmtCount(292486) != "292,486" {
		t.Errorf("FmtCount(292486) = %q", FmtCount(292486))
	}
}
