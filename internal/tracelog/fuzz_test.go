package tracelog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the log decoder: it must never panic,
// and whatever it successfully decodes must re-encode losslessly.
func FuzzReader(f *testing.F) {
	var seed bytes.Buffer
	w, _ := NewWriter(&seed, Header{Benchmark: "seed", DurationMicros: 42})
	w.Write(Event{Kind: KindCreate, Time: 1, Trace: 1, Size: 100, Module: 2, Head: 0x1000})
	w.Write(Event{Kind: KindAccess, Time: 2, Trace: 1})
	w.Write(Event{Kind: KindUnmap, Time: 3, Module: 2})
	w.Write(Event{Kind: KindEnd, Time: 4})
	w.Flush()
	f.Add(seed.Bytes())

	// A version-2 seed: interleaved processes, time stepping backwards
	// between them, an adoption — every v2-only codepath.
	var seed2 bytes.Buffer
	w2, _ := NewWriter(&seed2, Header{Benchmark: "seed2", DurationMicros: 99, Procs: 3})
	w2.Write(Event{Kind: KindCreate, Time: 5, Proc: 0, Trace: 1, Size: 64, Module: 1, Head: 0x2000})
	w2.Write(Event{Kind: KindAdopt, Time: 2, Proc: 1, Trace: 1, Size: 64, Module: 1, Head: 0x2000})
	w2.Write(Event{Kind: KindAccess, Time: 7, Proc: 2, Trace: 1})
	w2.Write(Event{Kind: KindPin, Time: 8, Proc: 0, Trace: 1})
	w2.Write(Event{Kind: KindUnpin, Time: 9, Proc: 0, Trace: 1})
	w2.Write(Event{Kind: KindUnmap, Time: 10, Proc: 1, Module: 1})
	w2.Write(Event{Kind: KindEnd, Time: 11, Proc: 0})
	w2.Flush()
	f.Add(seed2.Bytes())

	f.Add([]byte("CCLOG1\n"))
	f.Add([]byte("CCLOG2\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, events, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return // malformed input is fine, panics are not
		}
		// Round-trip what decoded cleanly.
		var buf bytes.Buffer
		w, werr := NewWriter(&buf, h)
		if werr != nil {
			t.Fatal(werr)
		}
		for _, e := range events {
			if werr := w.Write(e); werr != nil {
				t.Fatalf("re-encoding decoded event %+v: %v", e, werr)
			}
		}
		w.Flush()
		h2, events2, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if h2 != h || len(events2) != len(events) {
			t.Fatalf("round trip changed shape")
		}
		for i := range events {
			if events[i] != events2[i] {
				t.Fatalf("event %d changed: %+v -> %+v", i, events[i], events2[i])
			}
		}
	})
}

// FuzzNextBlock differentially fuzzes the block decoder against the
// per-event decoder: for arbitrary bytes, both must agree on the decoded
// event prefix and on whether the stream is acceptable — across windowed and
// unwindowed sources and block capacities that force block-boundary and
// window-edge straddles. AppendAll, which decodes through NextBlock, must
// also return the per-event decoder's error. It must never panic.
func FuzzNextBlock(f *testing.F) {
	// A v1 log big enough that a 3-event block straddles its runs, plus its
	// truncations: the truncated-final-block and cut-mid-event cases.
	var v1 bytes.Buffer
	w, _ := NewWriter(&v1, Header{Benchmark: "blk", DurationMicros: 7})
	for i := uint64(1); i <= 9; i++ {
		w.Write(Event{Kind: KindCreate, Time: i, Trace: i, Size: uint32(10 * i), Module: uint16(i % 2), Head: 0x40 * i})
		w.Write(Event{Kind: KindAccess, Time: i + 9, Trace: i})
	}
	w.Write(Event{Kind: KindUnmap, Time: 30, Module: 0})
	w.Write(Event{Kind: KindEnd, Time: 31})
	w.Flush()
	f.Add(v1.Bytes())
	f.Add(v1.Bytes()[:len(v1.Bytes())-3]) // truncated final block
	f.Add(v1.Bytes()[:len(v1.Bytes())/2]) // cut mid-stream

	// A v2 log: per-event procs, signed time deltas, adoption — the bounds
	// the PR-5 decoder hardening added are shared by both decode paths.
	var v2 bytes.Buffer
	w2, _ := NewWriter(&v2, Header{Benchmark: "blk2", DurationMicros: 9, Procs: 4})
	w2.Write(Event{Kind: KindCreate, Time: 8, Proc: 0, Trace: 1, Size: 128, Module: 3, Head: 0x800})
	w2.Write(Event{Kind: KindAdopt, Time: 2, Proc: 3, Trace: 1, Size: 128, Module: 3, Head: 0x800})
	w2.Write(Event{Kind: KindAccess, Time: 5, Proc: 1, Trace: 1})
	w2.Write(Event{Kind: KindEnd, Time: 12, Proc: 0})
	w2.Flush()
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:len(v2.Bytes())-2])

	// Wide time deltas in both framings: one-, two- and three-byte varints
	// on either side of the window decoder's short fast paths, enough events
	// that the window path decodes most of them.
	deltas := []uint64{1, 63, 64, 127, 128, 200, 8191, 8192, 16383, 16384, 1 << 20}
	for _, procs := range []int{1, 2} {
		var wide bytes.Buffer
		ww, _ := NewWriter(&wide, Header{Benchmark: "wide", DurationMicros: 3, Procs: procs})
		now := uint64(1 << 21)
		ww.Write(Event{Kind: KindCreate, Time: now, Trace: 1, Size: 64, Module: 1, Head: 0x40})
		for i := 0; i < 3*len(deltas); i++ {
			d := deltas[i%len(deltas)]
			if procs > 1 && i%2 == 1 {
				now -= d // version 2 steps back: a negative zigzag delta
			} else {
				now += d
			}
			ww.Write(Event{Kind: KindAccess, Time: now, Proc: i % procs, Trace: 1})
		}
		ww.Write(Event{Kind: KindEnd, Time: now})
		ww.Flush()
		f.Add(wide.Bytes())
	}

	// Implausible-bounds seeds: a huge module ID and a clock-wrapping delta
	// hand-assembled past a valid v1 header.
	head := []byte("CCLOG1\n\x03bad\x05")
	f.Add(append(append([]byte{}, head...), byte(KindUnmap), 0x01, 0xff, 0xff, 0x7f))
	f.Add(append(append([]byte{}, head...), byte(KindAccess), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01))
	// The same huge module ID after twenty accesses and before a run of
	// padding: the window decoder, not the per-event fallback, meets it,
	// with a decoded prefix in the block.
	mid := append([]byte{}, head...)
	for range 20 {
		mid = append(mid, byte(KindAccess), 0x01, 0x01)
	}
	mid = append(mid, byte(KindUnmap), 0x01, 0xff, 0xff, 0x7f)
	f.Add(append(mid, make([]byte, 2*maxEventBytes)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		wantH, want, wantErr := readAllNext(bytes.NewReader(data))

		for name, wrap := range map[string]func() io.Reader{
			"plain":    func() io.Reader { return bytes.NewReader(data) },
			"windowed": func() io.Reader { return bufio.NewReaderSize(struct{ io.Reader }{bytes.NewReader(data)}, 1<<10) },
		} {
			// AppendAll decodes through NextBlock: it must return the
			// per-event decoder's header, events and error, after whatever
			// dst already held.
			dst := []Event{{Kind: KindEnd, Time: 1}}
			h, got, err := AppendAll(dst, wrap())
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: AppendAll err = %v, per-event err = %v", name, err, wantErr)
			}
			if h != wantH || len(got) != 1+len(want) || got[0] != dst[0] {
				t.Fatalf("%s: AppendAll header %+v and %d events, per-event %+v and %d", name, h, len(got)-1, wantH, len(want))
			}
			for i := range want {
				if got[1+i] != want[i] {
					t.Fatalf("%s: AppendAll event %d = %+v, want %+v", name, i, got[1+i], want[i])
				}
			}
			for _, blockCap := range []int{1, 3, BlockEvents} {
				r, err := NewReader(wrap())
				if err != nil {
					if wantErr == nil {
						t.Fatalf("%s/cap=%d: header rejected (%v), per-event accepted", name, blockCap, err)
					}
					continue
				}
				if r.Header() != wantH {
					t.Fatalf("%s/cap=%d: header %+v, want %+v", name, blockCap, r.Header(), wantH)
				}
				b := NewEventBlock(blockCap)
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
					if b.N == 0 {
						t.Fatalf("%s/cap=%d: empty block without EOF", name, blockCap)
					}
				}
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s/cap=%d: block err = %v, per-event err = %v", name, blockCap, gotErr, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/cap=%d: %d events, per-event decoded %d", name, blockCap, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/cap=%d: event %d = %+v, want %+v", name, blockCap, i, got[i], want[i])
					}
				}
			}
		}
	})
}
