package tracelog

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindCreate, Time: 10, Trace: 1, Size: 242, Module: 0, Head: 0x1000},
		{Kind: KindAccess, Time: 12, Trace: 1},
		{Kind: KindCreate, Time: 20, Trace: 2, Size: 100, Module: 3, Head: 0x2000},
		{Kind: KindPin, Time: 21, Trace: 2},
		{Kind: KindAccess, Time: 25, Trace: 2},
		{Kind: KindUnpin, Time: 26, Trace: 2},
		{Kind: KindUnmap, Time: 30, Module: 3},
		{Kind: KindAccess, Time: 40, Trace: 1},
		{Kind: KindEnd, Time: 100},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "word", DurationMicros: 212_000_000})
	if err != nil {
		t.Fatal(err)
	}
	evs := sampleEvents()
	for _, e := range evs {
		if err := w.Write(e); err != nil {
			t.Fatalf("write %+v: %v", e, err)
		}
	}
	if w.Events() != uint64(len(evs)) {
		t.Errorf("Events = %d", w.Events())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	h, got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Benchmark != "word" || h.DurationMicros != 212_000_000 {
		t.Errorf("header = %+v", h)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], evs[i])
		}
	}
}

func TestWriterRejectsBackwardsTime(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{})
	if err := w.Write(Event{Kind: KindAccess, Time: 50, Trace: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Kind: KindAccess, Time: 40, Trace: 1}); err == nil {
		t.Error("backwards time accepted")
	}
}

func TestWriterRejectsAfterEnd(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{})
	w.Write(Event{Kind: KindEnd, Time: 1})
	if err := w.Write(Event{Kind: KindAccess, Time: 2, Trace: 1}); err == nil {
		t.Error("write after end accepted")
	}
}

func TestWriterRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{})
	if err := w.Write(Event{Kind: Kind(99), Time: 1}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(strings.NewReader("short")); err == nil {
		t.Error("truncated magic accepted")
	}
	if _, err := NewReader(strings.NewReader("NOTMAG1\nxxxxx")); err == nil {
		t.Error("bad magic accepted")
	}

	// Valid header then garbage event kind.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "x"})
	w.Flush()
	buf.WriteByte(200) // bogus kind
	buf.WriteByte(0)   // time delta
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestReaderEOFWithoutEnd(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "x"})
	w.Write(Event{Kind: KindAccess, Time: 5, Trace: 9})
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
	// Next after EOF stays EOF.
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestKindString(t *testing.T) {
	for k := KindCreate; k <= KindEnd; k++ {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if Kind(77).String() != "kind(77)" {
		t.Error("unknown kind string wrong")
	}
}

func TestQuickRoundTripRandomLogs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		var evs []Event
		tm := uint64(0)
		n := r.Intn(200)
		for i := 0; i < n; i++ {
			tm += uint64(r.Intn(1000))
			kind := Kind(1 + r.Intn(5)) // everything but End
			e := Event{Kind: kind, Time: tm}
			switch kind {
			case KindCreate:
				e.Trace = uint64(r.Intn(1 << 20))
				e.Size = uint32(r.Intn(1 << 16))
				e.Module = uint16(r.Intn(1 << 10))
				e.Head = uint64(r.Uint32())
			case KindAccess, KindPin, KindUnpin:
				e.Trace = uint64(r.Intn(1 << 20))
			case KindUnmap:
				e.Module = uint16(r.Intn(1 << 10))
			}
			evs = append(evs, e)
		}
		tm++
		evs = append(evs, Event{Kind: KindEnd, Time: tm})

		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Benchmark: "rnd", DurationMicros: tm})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		_, got, err := ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(evs) {
			t.Fatalf("iter %d: %d != %d events", iter, len(got), len(evs))
		}
		for i := range evs {
			if got[i] != evs[i] {
				t.Fatalf("iter %d event %d: %+v != %+v", iter, i, got[i], evs[i])
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(Header{Benchmark: "b", DurationMicros: 100}, sampleEvents())
	if s.Creates != 2 || s.CreatedBytes != 342 {
		t.Errorf("creates %d bytes %d", s.Creates, s.CreatedBytes)
	}
	if s.Accesses != 3 {
		t.Errorf("accesses %d", s.Accesses)
	}
	if s.Unmaps != 1 || s.UnmappedBytes != 100 {
		t.Errorf("unmaps %d bytes %d", s.Unmaps, s.UnmappedBytes)
	}
	if s.EndTime != 100 {
		t.Errorf("end time %d", s.EndTime)
	}
	if s.MaxLiveBytes != 342 {
		t.Errorf("max live %d", s.MaxLiveBytes)
	}
	if len(s.TraceSizes) != 2 {
		t.Errorf("trace sizes %v", s.TraceSizes)
	}
}

func TestSummarizeNoEnd(t *testing.T) {
	evs := []Event{
		{Kind: KindCreate, Time: 5, Trace: 1, Size: 10},
		{Kind: KindAccess, Time: 9, Trace: 1},
	}
	s := Summarize(Header{}, evs)
	if s.EndTime != 9 {
		t.Errorf("end time fallback = %d, want 9", s.EndTime)
	}
	if Summarize(Header{}, nil).EndTime != 0 {
		t.Error("empty log end time should be 0")
	}
}

func TestSummarizeDoubleUnmap(t *testing.T) {
	evs := []Event{
		{Kind: KindCreate, Time: 1, Trace: 1, Size: 50, Module: 2},
		{Kind: KindUnmap, Time: 2, Module: 2},
		{Kind: KindUnmap, Time: 3, Module: 2}, // second unmap must not double count
		{Kind: KindEnd, Time: 4},
	}
	s := Summarize(Header{}, evs)
	if s.UnmappedBytes != 50 {
		t.Errorf("unmapped bytes = %d, want 50", s.UnmappedBytes)
	}
}

func TestRoundTripV2(t *testing.T) {
	// Multi-process logs interleave per-process clocks: time may step
	// backwards between events, and every event carries its process.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "multi", DurationMicros: 1000, Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{Kind: KindCreate, Time: 10, Trace: 1, Size: 200, Module: 2, Head: 0x40, Proc: 0},
		{Kind: KindAccess, Time: 12, Trace: 1, Proc: 0},
		{Kind: KindAdopt, Time: 5, Trace: 1, Size: 200, Module: 2, Head: 0x40, Proc: 1},
		{Kind: KindAccess, Time: 6, Trace: 1, Proc: 1},
		{Kind: KindAccess, Time: 30, Trace: 1, Proc: 2},
		{Kind: KindUnmap, Time: 2, Module: 2, Proc: 1},
		{Kind: KindEnd, Time: 40},
	}
	for _, e := range evs {
		if err := w.Write(e); err != nil {
			t.Fatalf("write %+v: %v", e, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("CCLOG2\n")) {
		t.Fatalf("multi-process log uses magic %q", buf.Bytes()[:7])
	}

	h, got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Benchmark != "multi" || h.DurationMicros != 1000 || h.Procs != 3 {
		t.Errorf("header = %+v", h)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], evs[i])
		}
	}
}

func TestV1StaysByteIdenticalWithProcsOne(t *testing.T) {
	// Procs 0 and 1 must both produce the historical version-1 stream.
	write := func(procs int) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Benchmark: "b", Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sampleEvents() {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	zero, one := write(0), write(1)
	if !bytes.Equal(zero, one) {
		t.Error("procs 0 and 1 encode differently")
	}
	if !bytes.HasPrefix(zero, []byte("CCLOG1\n")) {
		t.Errorf("single-process log uses magic %q", zero[:7])
	}
}

func TestWriterV2RejectsNegativeProc(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "b", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Kind: KindAccess, Trace: 1, Proc: -1}); err == nil {
		t.Error("negative process ID accepted")
	}
}

// TestWriterRejectedWriteLeavesNoTrace checks that a refused event writes no
// byte and does not move the writer's clock, in both framings: the valid
// events around two refused ones decode back exactly.
func TestWriterRejectedWriteLeavesNoTrace(t *testing.T) {
	for _, procs := range []int{1, 2} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Benchmark: "b", Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		valid := []Event{
			{Kind: KindCreate, Time: 5, Trace: 1, Size: 64, Module: 1, Head: 0x40},
			{Kind: KindAccess, Time: 6, Trace: 1},
			{Kind: KindEnd, Time: 7},
		}
		if err := w.Write(valid[0]); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(Event{Kind: Kind(99), Time: 9}); err == nil {
			t.Errorf("procs %d: unknown kind accepted", procs)
		}
		if err := w.Write(Event{Kind: KindAccess, Time: 9, Trace: 1, Proc: -1}); err == nil {
			t.Errorf("procs %d: negative process ID accepted", procs)
		}
		for _, e := range valid[1:] {
			if err := w.Write(e); err != nil {
				t.Fatalf("procs %d: write %+v after a refused one: %v", procs, e, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if w.Events() != uint64(len(valid)) {
			t.Errorf("procs %d: Events = %d, want %d", procs, w.Events(), len(valid))
		}
		_, got, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		if len(got) != len(valid) {
			t.Fatalf("procs %d: decoded %d events, want %d", procs, len(got), len(valid))
		}
		for i := range valid {
			if got[i] != valid[i] {
				t.Errorf("procs %d: event %d: %+v != %+v", procs, i, got[i], valid[i])
			}
		}
	}
}

func TestSummarizeCountsAdoptions(t *testing.T) {
	h := Header{Benchmark: "b", Procs: 2}
	evs := []Event{
		{Kind: KindCreate, Time: 1, Trace: 1, Size: 100, Module: 1, Head: 0x40, Proc: 0},
		{Kind: KindAdopt, Time: 2, Trace: 1, Size: 100, Module: 1, Head: 0x40, Proc: 1},
		{Kind: KindAccess, Time: 3, Trace: 1, Proc: 1},
		{Kind: KindEnd, Time: 4},
	}
	s := Summarize(h, evs)
	if s.Adoptions != 1 {
		t.Errorf("adoptions = %d, want 1", s.Adoptions)
	}
	if s.Creates != 1 {
		t.Errorf("creates = %d, want 1 (adoption is not a generation)", s.Creates)
	}
	if s.MaxLiveBytes != 100 {
		t.Errorf("max live = %d: an adoption must not double-count bytes", s.MaxLiveBytes)
	}
}
