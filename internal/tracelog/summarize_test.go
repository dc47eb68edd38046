package tracelog

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// refSummarizer is the per-trace summarizer Summarizer replaced, kept as the
// reference it is compared with: every trace's size, module and liveness in
// a table by ID, and each module's traces listed for its unmap.
type refSummarizer struct {
	s        Summary
	traces   map[uint64]*refTrace
	byModule map[uint16][]uint64
	live     uint64
	lastTime uint64
	seen     bool
}

type refTrace struct {
	size   uint32
	module uint16
	live   bool
}

func newRefSummarizer(h Header) *refSummarizer {
	return &refSummarizer{
		s:        Summary{Header: h},
		traces:   make(map[uint64]*refTrace),
		byModule: make(map[uint16][]uint64),
	}
}

func (z *refSummarizer) add(e Event) {
	z.s.Events++
	z.seen = true
	z.lastTime = e.Time
	switch e.Kind {
	case KindCreate:
		z.s.Creates++
		z.s.CreatedBytes += uint64(e.Size)
		z.traces[e.Trace] = &refTrace{size: e.Size, module: e.Module, live: true}
		z.byModule[e.Module] = append(z.byModule[e.Module], e.Trace)
		z.live += uint64(e.Size)
		if z.live > z.s.MaxLiveBytes {
			z.s.MaxLiveBytes = z.live
		}
		z.s.TraceSizes = append(z.s.TraceSizes, e.Size)
	case KindAdopt:
		z.s.Adoptions++
		if z.traces[e.Trace] == nil {
			z.traces[e.Trace] = &refTrace{size: e.Size, module: e.Module}
			z.byModule[e.Module] = append(z.byModule[e.Module], e.Trace)
		}
	case KindAccess:
		z.s.Accesses++
	case KindUnmap:
		z.s.Unmaps++
		for _, id := range z.byModule[e.Module] {
			if m := z.traces[id]; m != nil && m.live {
				m.live = false
				z.s.UnmappedBytes += uint64(m.size)
				z.live -= uint64(m.size)
			}
		}
		z.byModule[e.Module] = z.byModule[e.Module][:0]
	case KindEnd:
		z.s.EndTime = e.Time
	}
}

func (z *refSummarizer) summary() Summary {
	s := z.s
	if s.EndTime == 0 && z.seen {
		s.EndTime = z.lastTime
	}
	return s
}

// randomLog builds a log the replay would accept: every trace is created at
// most once and never after it was adopted; adoptions name a trace already
// created or one no event creates. IDs are drawn from the whole range,
// modules from a few, and every kind appears.
func randomLog(rng *rand.Rand, n int) []Event {
	var events []Event
	var created []uint64
	seen := make(map[uint64]bool)
	fresh := func() uint64 {
		for {
			id := rng.Uint64() >> uint(rng.Intn(64))
			if !seen[id] {
				seen[id] = true
				return id
			}
		}
	}
	time := uint64(0)
	for i := 0; i < n; i++ {
		time += uint64(rng.Intn(3))
		e := Event{Time: time, Module: uint16(rng.Intn(5)), Size: uint32(1 + rng.Intn(512)), Head: rng.Uint64()}
		switch r := rng.Intn(20); {
		case r < 6:
			e.Kind, e.Trace = KindCreate, fresh()
			created = append(created, e.Trace)
		case r < 8 && len(created) > 0 && rng.Intn(2) == 0:
			e.Kind, e.Trace = KindAdopt, created[rng.Intn(len(created))]
		case r < 8:
			e.Kind, e.Trace = KindAdopt, fresh()
		case r < 10:
			e = Event{Kind: KindUnmap, Time: time, Module: e.Module}
		case r < 11:
			e = Event{Kind: KindPin + Kind(rng.Intn(2)), Time: time, Trace: rng.Uint64()}
		default:
			e = Event{Kind: KindAccess, Time: time, Trace: rng.Uint64()}
		}
		events = append(events, e)
	}
	if rng.Intn(2) == 0 {
		events = append(events, Event{Kind: KindEnd, Time: time + 1})
	}
	return events
}

// TestSummarizerMatchesPerTraceReference: on random logs the replay would
// accept, the per-module Summarizer gives the per-trace reference's Summary,
// fed per event and per block.
func TestSummarizerMatchesPerTraceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for log := 0; log < 300; log++ {
		h := Header{Benchmark: "random", Procs: 2}
		events := randomLog(rng, rng.Intn(400))
		ref := newRefSummarizer(h)
		for _, e := range events {
			ref.add(e)
		}
		want := ref.summary()
		if got := Summarize(h, events); !reflect.DeepEqual(got, want) {
			t.Fatalf("log %d: Summarize = %+v, the per-trace reference %+v", log, got, want)
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		z := NewSummarizer(r.Header())
		b := NewEventBlock(16)
		for {
			err := r.NextBlock(b)
			z.AddBlock(b)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := z.Summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("log %d: per-block Summarizer = %+v, the per-trace reference %+v", log, got, want)
		}
	}
}
