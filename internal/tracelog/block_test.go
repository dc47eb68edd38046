package tracelog

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// mixedLog builds a log exercising every event kind, returning the encoded
// bytes and the events as written.
func mixedLog(t testing.TB, procs, nTraces, rounds int) ([]byte, Header, []Event) {
	t.Helper()
	h := Header{Benchmark: "mixed", DurationMicros: 12345, Procs: procs}
	var events []Event
	time := uint64(0)
	tick := func() uint64 { time++; return time }
	for i := 0; i < nTraces; i++ {
		events = append(events, Event{
			Kind: KindCreate, Time: tick(), Trace: uint64(i + 1),
			Size: uint32(64 + i), Module: uint16(i % 3), Head: uint64(0x1000 + i*64),
		})
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < nTraces; i++ {
			e := Event{Kind: KindAccess, Time: tick(), Trace: uint64(i + 1)}
			if procs > 1 {
				e.Proc = i % procs
			}
			events = append(events, e)
		}
	}
	events = append(events,
		Event{Kind: KindPin, Time: tick(), Trace: 1},
		Event{Kind: KindUnpin, Time: tick(), Trace: 1},
		Event{Kind: KindUnmap, Time: tick(), Module: 1},
		Event{Kind: KindEnd, Time: tick()},
	)
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
	if procs <= 1 {
		// The reader reports 0 procs for version-1 logs.
		h.Procs = 0
	}
	return buf.Bytes(), h, events
}

// readAllNext decodes the whole stream event by event through Next: the
// per-event decoder the block decoder, and so AppendAll, must reproduce.
func readAllNext(r io.Reader) (Header, []Event, error) {
	rd, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	var out []Event
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return rd.Header(), out, nil
		}
		if err != nil {
			return rd.Header(), out, err
		}
		out = append(out, e)
	}
}

// readAllBlocks decodes the whole stream through NextBlock with the given
// block capacity and source wrapping.
func readAllBlocks(t testing.TB, data []byte, blockCap int, wrap func([]byte) io.Reader) (Header, []Event) {
	t.Helper()
	r, err := NewReader(wrap(data))
	if err != nil {
		t.Fatal(err)
	}
	b := NewEventBlock(blockCap)
	var out []Event
	for {
		err := r.NextBlock(b)
		for i := 0; i < b.N; i++ {
			out = append(out, b.Event(i))
		}
		if err == io.EOF {
			return r.Header(), out
		}
		if err != nil {
			t.Fatalf("NextBlock: %v", err)
		}
	}
}

// TestNextBlockMatchesNext: the block decoder must produce exactly the
// per-event decoder's stream, for both framings, across block capacities
// that straddle event-run boundaries, from both windowed (bufio) and
// unwindowed (bytes.Reader) sources.
func TestNextBlockMatchesNext(t *testing.T) {
	wraps := map[string]func([]byte) io.Reader{
		// bytes.Reader is a byteSource: NewReader uses it directly and the
		// block decoder takes its per-event fallback path.
		"bytes": func(d []byte) io.Reader { return bytes.NewReader(d) },
		// A bare io.Reader gets wrapped in bufio: the window path engages.
		"windowed": func(d []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(d)} },
		// A 128-byte window fits only a couple of events: the window path
		// engages but straddles the window edge constantly.
		"tiny-window": func(d []byte) io.Reader { return bufio.NewReaderSize(struct{ io.Reader }{bytes.NewReader(d)}, 128) },
		// A 16-byte window can never hold a whole worst-case event, forcing
		// the per-event fallback on a peeker source.
		"window-too-small": func(d []byte) io.Reader { return bufio.NewReaderSize(struct{ io.Reader }{bytes.NewReader(d)}, 16) },
	}
	for _, procs := range []int{1, 3} {
		data, wantH, want := mixedLog(t, procs, 17, 9)
		for name, wrap := range wraps {
			for _, blockCap := range []int{1, 7, 64, BlockEvents} {
				gotH, got := readAllBlocks(t, data, blockCap, wrap)
				if gotH != wantH {
					t.Fatalf("procs=%d %s cap=%d: header = %+v, want %+v", procs, name, blockCap, gotH, wantH)
				}
				if len(got) != len(want) {
					t.Fatalf("procs=%d %s cap=%d: %d events, want %d", procs, name, blockCap, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("procs=%d %s cap=%d: event %d = %+v, want %+v", procs, name, blockCap, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNextBlockTruncated: a stream cut off mid-log must yield the same
// decoded prefix and the same error disposition as the per-event decoder,
// wherever the cut lands.
func TestNextBlockTruncated(t *testing.T) {
	data, _, _ := mixedLog(t, 3, 5, 3)
	for cut := len(data) - 1; cut > len(magicV2); cut -= 3 {
		trunc := data[:cut]
		wantH, want, wantErr := readAllNext(bytes.NewReader(trunc))
		r, err := NewReader(struct{ io.Reader }{bytes.NewReader(trunc)})
		if err != nil {
			// Cut inside the header: both decoders must refuse it.
			if wantErr == nil {
				t.Fatalf("cut=%d: block header rejected (%v) but per-event accepted", cut, err)
			}
			continue
		}
		if r.Header() != wantH {
			t.Fatalf("cut=%d: header mismatch", cut)
		}
		b := NewEventBlock(8)
		var got []Event
		var gotErr error
		for {
			err := r.NextBlock(b)
			for i := 0; i < b.N; i++ {
				got = append(got, b.Event(i))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				gotErr = err
				break
			}
		}
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("cut=%d: block err = %v, per-event err = %v", cut, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("cut=%d: block decoded %d events, per-event %d", cut, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut=%d: event %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
	}
}

// TestNextBlockAfterEnd: the block holding KindEnd is the last; the next
// call reports io.EOF and concatenated streams stay readable from a
// byte-addressable source, exactly like the per-event decoder.
func TestNextBlockAfterEnd(t *testing.T) {
	data, _, events := mixedLog(t, 1, 3, 2)
	double := append(append([]byte{}, data...), data...)
	src := bytes.NewReader(double)
	for log := 0; log < 2; log++ {
		r, err := NewReader(src)
		if err != nil {
			t.Fatalf("log %d: %v", log, err)
		}
		b := NewEventBlock(BlockEvents)
		n := 0
		for {
			err := r.NextBlock(b)
			n += b.N
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("log %d: %v", log, err)
			}
		}
		if n != len(events) {
			t.Fatalf("log %d: decoded %d events, want %d", log, n, len(events))
		}
	}
}

// TestSummarizerMatchesSummarize: the incremental and batch scanners must
// agree field for field, whether fed per event or per block.
func TestSummarizerMatchesSummarize(t *testing.T) {
	data, h, events := mixedLog(t, 3, 17, 4)
	want := Summarize(h, events)

	z := NewSummarizer(h)
	for _, e := range events {
		z.Add(e)
	}
	if got := z.Summary(); !summariesEqual(got, want) {
		t.Errorf("per-event Summarizer = %+v, want %+v", got, want)
	}

	r, err := NewReader(struct{ io.Reader }{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	zb := NewSummarizer(r.Header())
	b := NewEventBlock(32)
	for {
		err := r.NextBlock(b)
		zb.AddBlock(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := zb.Summary(); !summariesEqual(got, want) {
		t.Errorf("per-block Summarizer = %+v, want %+v", got, want)
	}
}

func summariesEqual(a, b Summary) bool {
	return reflect.DeepEqual(a, b)
}

// TestNextBlockZeroAlloc is the ingest path's allocation regression guard:
// steady-state block decoding must not allocate per event. The whole-stream
// decode is allowed the constant setup allocations (reader, header name) —
// asserting total allocations far below the event count pins the per-event
// cost to zero.
func TestNextBlockZeroAlloc(t *testing.T) {
	data, _, events := mixedLog(t, 1, 64, 200) // ~12.9k events
	if len(events) < 10000 {
		t.Fatalf("log too small for a steady-state guard: %d events", len(events))
	}
	b := NewEventBlock(BlockEvents)
	for name, wrap := range map[string]func([]byte) io.Reader{
		"fallback": func(d []byte) io.Reader { return bytes.NewReader(d) },
		"windowed": func(d []byte) io.Reader {
			return bufio.NewReaderSize(struct{ io.Reader }{bytes.NewReader(d)}, DefaultBufSize)
		},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			r, err := NewReader(wrap(data))
			if err != nil {
				t.Fatal(err)
			}
			for {
				if err := r.NextBlock(b); err != nil {
					if err == io.EOF {
						return
					}
					t.Fatal(err)
				}
			}
		})
		// The bufio wrap in the windowed case plus reader + name: single
		// digits for a 12k-event stream = 0 allocs per event.
		if allocs > 8 {
			t.Errorf("%s: %.0f allocations decoding %d events; want O(1) setup only", name, allocs, len(events))
		}
	}
}

// TestBlockPool: blocks round-trip through the pool reset, and odd-sized
// blocks are not kept.
func TestBlockPool(t *testing.T) {
	b := GetBlock()
	if b.Cap() != BlockEvents {
		t.Fatalf("pooled block capacity %d", b.Cap())
	}
	b.N = 17
	PutBlock(b)
	if got := GetBlock(); got.N != 0 {
		t.Errorf("pooled block came back with N=%d", got.N)
	}
	PutBlock(NewEventBlock(8)) // dropped, not pooled
	if got := GetBlock(); got.Cap() != BlockEvents {
		t.Errorf("pool handed out a %d-cap block", got.Cap())
	}
}
