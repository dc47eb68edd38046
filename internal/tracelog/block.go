// Block decoding: the zero-copy wire path of the batched replay kernel.
//
// The per-event Reader.Next is fine for offline tools, but the gencached
// ingest path decodes tens of millions of events straight off sockets, and
// event-at-a-time decoding pays an interface-dispatched ReadByte per wire
// byte plus a 64-byte Event copy per event. NextBlock instead fills a
// caller-owned, fixed-size EventBlock — struct-of-arrays, reused across
// calls, zero per-event allocation — decoding varints directly out of the
// buffered window when the source exposes one (bufio.Reader does; every
// network body the service reads is wrapped in one). Both wire framings and
// every plausibility bound of the per-event decoder apply identically: the
// fallback path *is* the per-event decoder, and the window path reproduces
// its checks bound for bound.
package tracelog

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// BlockEvents is the default EventBlock capacity. 4096 events keep a block's
// arrays (~160 KiB) hot in cache while amortizing the per-block overhead of
// the replay kernel to nothing.
const BlockEvents = 4096

// maxEventBytes bounds one encoded event: kind byte plus at most six
// 10-byte varints (proc, time, trace, size, module, head). The window
// decoder only decodes an event straight out of the buffered window when at
// least this many bytes are visible, so it never reads a varint past the
// window edge; shorter tails fall back to the per-event decoder.
const maxEventBytes = 1 + 6*10

// EventBlock is a fixed-capacity batch of decoded events in struct-of-arrays
// layout: the replay kernel walks one narrow column per decision instead of
// striding 64-byte Event structs. All columns share one capacity; the first
// N entries are valid. Blocks are caller-owned and reused — NextBlock resets
// N and overwrites in place.
type EventBlock struct {
	N      int
	Kind   []Kind
	Time   []uint64
	Trace  []uint64
	Size   []uint32
	Module []uint16
	Head   []uint64
	// Proc is int32, not int: process IDs are bounded by maxProcs (1<<20),
	// and the narrower column keeps the block compact.
	Proc []int32
}

// NewEventBlock allocates a block with the given capacity (BlockEvents when
// n <= 0).
func NewEventBlock(n int) *EventBlock {
	if n <= 0 {
		n = BlockEvents
	}
	return &EventBlock{
		Kind:   make([]Kind, n),
		Time:   make([]uint64, n),
		Trace:  make([]uint64, n),
		Size:   make([]uint32, n),
		Module: make([]uint16, n),
		Head:   make([]uint64, n),
		Proc:   make([]int32, n),
	}
}

// Cap returns the block's event capacity.
func (b *EventBlock) Cap() int { return len(b.Kind) }

// Reset empties the block without releasing its arrays.
func (b *EventBlock) Reset() { b.N = 0 }

// clearPayload zeroes the columns the window decoder does not write for
// every kind (payload fields are zero except where the kind defines them).
// One memclr per block replaces three scattered stores per access event —
// the single hottest line of the decode loop.
func (b *EventBlock) clearPayload() {
	clear(b.Trace)
	clear(b.Size)
	clear(b.Module)
	clear(b.Head)
	clear(b.Proc)
}

// Event materializes entry i as a conventional Event (tests, debug paths;
// the replay kernel reads the columns directly).
func (b *EventBlock) Event(i int) Event {
	return Event{
		Kind:   b.Kind[i],
		Time:   b.Time[i],
		Trace:  b.Trace[i],
		Size:   b.Size[i],
		Module: b.Module[i],
		Head:   b.Head[i],
		Proc:   int(b.Proc[i]),
	}
}

// Fill resets b and packs up to Cap() events from the front of events,
// returning how many it took. In-memory replays (offline ccsim) use it to
// feed the same block kernel the streaming ingest path runs.
func (b *EventBlock) Fill(events []Event) int {
	b.Reset()
	n := len(events)
	if n > b.Cap() {
		n = b.Cap()
	}
	for i := 0; i < n; i++ {
		b.push(&events[i])
	}
	return n
}

// push appends a decoded event to the block. Callers check capacity.
func (b *EventBlock) push(e *Event) {
	i := b.N
	b.Kind[i] = e.Kind
	b.Time[i] = e.Time
	b.Trace[i] = e.Trace
	b.Size[i] = e.Size
	b.Module[i] = e.Module
	b.Head[i] = e.Head
	b.Proc[i] = int32(e.Proc)
	b.N = i + 1
}

// blockPool recycles default-capacity blocks across sessions, the same way
// codecache pools arena nodes: a busy server decodes millions of blocks and
// should allocate a handful, total.
var blockPool = sync.Pool{New: func() any { return NewEventBlock(BlockEvents) }}

// GetBlock returns a reset default-capacity block from the pool.
func GetBlock() *EventBlock {
	b := blockPool.Get().(*EventBlock)
	b.Reset()
	return b
}

// PutBlock returns a block to the pool. Only default-capacity blocks are
// kept; odd-sized blocks (tests) are dropped so pool consumers always get
// BlockEvents of capacity.
func PutBlock(b *EventBlock) {
	if b != nil && b.Cap() == BlockEvents {
		blockPool.Put(b)
	}
}

// peeker is the window access the zero-copy decode path needs. bufio.Reader
// satisfies it, and NewReader wraps every source that is not already
// byte-addressable (network bodies, plain files) in one.
type peeker interface {
	Buffered() int
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// NextBlock fills b with up to Cap() events and returns nil, or io.EOF once
// the stream is exhausted and no events were decoded. A final partial block
// is returned with nil error; the following call returns io.EOF. On a decode
// error the events decoded before the error are in b and the error is
// returned — exactly the prefix the per-event decoder would have produced.
//
// The decode itself never allocates: when the underlying source is a
// buffered window (any source NewReader had to wrap, i.e. every network
// stream), whole events are decoded varint-by-varint straight out of the
// window without a single reader call per byte; events straddling the window
// edge, and sources with no window at all, go through the per-event decoder.
func (r *Reader) NextBlock(b *EventBlock) error {
	b.Reset()
	if r.done {
		return io.EOF
	}
	b.clearPayload()
	pk, hasWindow := r.r.(peeker)
	for b.N < b.Cap() && !r.done {
		// Zero-copy path: only when a full event's worth of bytes is
		// already buffered — Buffered never blocks, so a slow writer on a
		// held-open stream is handled exactly like the per-event path
		// (block for one byte, not for a window).
		if hasWindow {
			if buffered := pk.Buffered(); buffered >= maxEventBytes {
				win, err := pk.Peek(buffered)
				if err == nil && len(win) >= maxEventBytes {
					if err := r.decodeWindow(pk, win, b); err != nil {
						return err
					}
					continue
				}
			}
		}
		var e Event
		if err := r.readEvent(&e); err != nil {
			if errors.Is(err, io.EOF) {
				r.done = true
				if b.N > 0 {
					return nil
				}
				return io.EOF
			}
			return err
		}
		b.push(&e)
	}
	return nil
}

// decodeWindow decodes events out of win into b until the block is full, the
// remaining window is too short to hold a whole event, or the stream ends.
// Consumed bytes are discarded from the source before returning, including
// the bytes of an event whose decode failed — matching what the per-event
// decoder would have consumed.
func (r *Reader) decodeWindow(pk peeker, win []byte, b *EventBlock) error {
	pos := 0
	last := r.lastTime
	v2 := r.v2
	// The block's fields live in locals for the whole decode: stores into
	// the columns cannot be proven free of aliasing with the slice headers
	// behind b, so without the hoist every column store reloads its base
	// pointer.
	nEv := b.N
	// Every column reslices to the kind column's length so the compiler can
	// elide the bounds check on each per-event store.
	kinds := b.Kind
	times, traces := b.Time[:len(kinds)], b.Trace[:len(kinds)]
	sizes, mods := b.Size[:len(kinds)], b.Module[:len(kinds)]
	heads, procs := b.Head[:len(kinds)], b.Proc[:len(kinds)]
	defer func() {
		r.lastTime = last
		b.N = nEv
		if pos > 0 {
			// Discard of already-buffered bytes cannot fail.
			_, _ = pk.Discard(pos)
		}
	}()
	for nEv < len(kinds) && len(win)-pos >= maxEventBytes {
		i := nEv
		k := Kind(win[pos])
		p := pos + 1
		// Time (and proc, in version-2 framing). Almost every varint in a
		// real log is one or two bytes — time deltas under 16384,
		// sequentially assigned trace IDs — so the hot fields decode
		// through an inlined one- and two-byte fast path and only spill
		// into the general decoder for wide values. The window holds a
		// whole event, so the second byte is always in it.
		if v2 {
			var proc uint64
			if c := win[p]; c < 0x80 {
				proc = uint64(c)
				p++
			} else {
				var n int
				proc, n = uvarint(win[p:])
				if n <= 0 {
					pos = p + varintLen(win[p:])
					return fmt.Errorf("tracelog: reading process: %w", errVarintOverflow)
				}
				p += n
				if proc > maxProcs {
					pos = p
					return fmt.Errorf("tracelog: implausible process ID %d", proc)
				}
			}
			procs[i] = int32(proc)
			var zz uint64 // the zigzag-encoded delta
			if c := win[p]; c < 0x80 {
				zz = uint64(c)
				p++
			} else if c2 := win[p+1]; c2 < 0x80 {
				zz = uint64(c&0x7f) | uint64(c2)<<7
				p += 2
			} else {
				var n int
				zz, n = uvarint(win[p:])
				if n <= 0 {
					pos = p + varintLen(win[p:])
					return fmt.Errorf("tracelog: reading time: %w", errVarintOverflow)
				}
				p += n
			}
			dt := int64(zz >> 1)
			if zz&1 != 0 {
				dt = ^dt
			}
			last = uint64(int64(last) + dt)
		} else {
			var dt uint64
			if c := win[p]; c < 0x80 {
				dt = uint64(c)
				p++
			} else if c2 := win[p+1]; c2 < 0x80 {
				dt = uint64(c&0x7f) | uint64(c2)<<7
				p += 2
			} else {
				var n int
				dt, n = uvarint(win[p:])
				if n <= 0 {
					pos = p + varintLen(win[p:])
					return fmt.Errorf("tracelog: reading time: %w", errVarintOverflow)
				}
				p += n
			}
			if last+dt < last {
				pos = p
				return fmt.Errorf("tracelog: time delta %d overflows the clock", dt)
			}
			last += dt
		}
		kinds[i] = k
		times[i] = last

		// Accesses are the bulk of any real log: dispatch them on a single
		// compare before the general switch.
		if k == KindAccess {
			if c := win[p]; c < 0x80 {
				traces[i] = uint64(c)
				p++
			} else if c2 := win[p+1]; c2 < 0x80 {
				traces[i] = uint64(c&0x7f) | uint64(c2)<<7
				p += 2
			} else {
				tr, n := uvarint(win[p:])
				if n <= 0 {
					pos = p + varintLen(win[p:])
					return errVarintOverflow
				}
				p += n
				traces[i] = tr
			}
			nEv = i + 1
			pos = p
			continue
		}

		switch k {
		case KindCreate, KindAdopt:
			tr, n := uvarint(win[p:])
			if n <= 0 {
				pos = p + varintLen(win[p:])
				return errVarintOverflow
			}
			p += n
			sz, n := uvarint(win[p:])
			if n <= 0 {
				pos = p + varintLen(win[p:])
				return errVarintOverflow
			}
			p += n
			if sz > maxTraceSize {
				pos = p
				return fmt.Errorf("tracelog: implausible trace size %d", sz)
			}
			mod, n := uvarint(win[p:])
			if n <= 0 {
				pos = p + varintLen(win[p:])
				return errVarintOverflow
			}
			p += n
			if mod > maxModuleID {
				pos = p
				return fmt.Errorf("tracelog: implausible module ID %d", mod)
			}
			hd, n := uvarint(win[p:])
			if n <= 0 {
				pos = p + varintLen(win[p:])
				return errVarintOverflow
			}
			p += n
			traces[i] = tr
			sizes[i] = uint32(sz)
			mods[i] = uint16(mod)
			heads[i] = hd
		case KindAccess, KindPin, KindUnpin:
			if c := win[p]; c < 0x80 {
				traces[i] = uint64(c)
				p++
			} else if c2 := win[p+1]; c2 < 0x80 {
				traces[i] = uint64(c&0x7f) | uint64(c2)<<7
				p += 2
			} else {
				tr, n := uvarint(win[p:])
				if n <= 0 {
					pos = p + varintLen(win[p:])
					return errVarintOverflow
				}
				p += n
				traces[i] = tr
			}
		case KindUnmap:
			mod, n := uvarint(win[p:])
			if n <= 0 {
				pos = p + varintLen(win[p:])
				return errVarintOverflow
			}
			p += n
			if mod > maxModuleID {
				pos = p
				return fmt.Errorf("tracelog: implausible module ID %d", mod)
			}
			mods[i] = uint16(mod)
		case KindEnd:
			r.done = true
		default:
			pos = p
			return fmt.Errorf("tracelog: unknown event kind %d", uint8(k))
		}
		nEv = i + 1
		pos = p
		if r.done {
			return nil
		}
	}
	return nil
}

// errVarintOverflow mirrors encoding/binary's ReadUvarint overflow error for
// the window decoder, so both decode paths fail malformed varints alike.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint decodes an unsigned varint from buf: (value, bytes consumed), or
// n <= 0 on overflow. Inlined (rather than binary.Uvarint) so the window
// decoder's inner loop has no cross-package call.
func uvarint(buf []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, c := range buf {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, -1
			}
			return v | uint64(c)<<s, i + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0 // cannot happen: callers guarantee >= 10 bytes
}

// varintLen reports how many bytes a varint decode would consume before
// overflowing — the window decoder discards exactly what the per-event
// decoder would have read, so a decode error leaves both paths at the same
// stream position.
func varintLen(buf []byte) int {
	for i, c := range buf {
		if i == 9 {
			return 10
		}
		if c < 0x80 {
			return i + 1
		}
	}
	return len(buf)
}

// readEvent decodes one event into e; it is Next without the Event return
// copy, shared by the per-event API and the block decoder's fallback path.
func (r *Reader) readEvent(e *Event) error {
	ev, err := r.Next()
	if err != nil {
		return err
	}
	*e = ev
	return nil
}
