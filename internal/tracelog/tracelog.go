// Package tracelog defines the code-cache event log the reproduction's
// methodology revolves around. The paper ran each benchmark once under
// DynamoRIO with an unbounded code cache, captured a verbose log of cache
// events, and replayed that log through a cache simulator for every
// configuration under study (§6). The DBT engine here emits the same kind of
// log; internal/sim replays it.
//
// The format is a compact little-endian binary stream: a magic header, a
// benchmark name, a declared duration, then varint-encoded events with
// delta-encoded timestamps.
package tracelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind enumerates event types.
type Kind uint8

const (
	// KindCreate records the generation of a new trace: ID, head address,
	// size in bytes, and owning module.
	KindCreate Kind = iota + 1
	// KindAccess records execution entering a trace through the dispatcher.
	KindAccess
	// KindUnmap records a module being unmapped; every trace from that
	// module must be force-deleted.
	KindUnmap
	// KindPin records a trace becoming undeletable (e.g. an exception is
	// being handled inside it).
	KindPin
	// KindUnpin records a pinned trace becoming deletable again.
	KindUnpin
	// KindEnd closes the log and fixes the total execution time.
	KindEnd
	// KindAdopt records a process attaching to a trace another process
	// already published in the shared persistent tier: same payload as
	// KindCreate, but no generation cost was paid. Only multi-process logs
	// contain it. (It is numbered after KindEnd so single-process logs keep
	// their historical byte values.)
	KindAdopt
)

var kindNames = [...]string{"invalid", "create", "access", "unmap", "pin", "unpin", "end", "adopt"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one code-cache event. Time is in virtual microseconds from the
// start of the run.
type Event struct {
	Kind   Kind
	Time   uint64
	Trace  uint64 // KindCreate, KindAdopt, KindAccess, KindPin, KindUnpin
	Size   uint32 // KindCreate, KindAdopt
	Module uint16 // KindCreate, KindAdopt, KindUnmap
	Head   uint64 // KindCreate, KindAdopt: original address of the trace head
	// Proc is the front-end process that caused the event. Only encoded in
	// multi-process (version 2) logs; single-process logs stay byte-identical
	// to the historical format.
	Proc int
}

// Two wire formats share one reader. Version 1 ("CCLOG1\n") is the original
// single-process format: per-event unsigned time deltas, no process field.
// Version 2 ("CCLOG2\n") carries a process count in the header and, per
// event, the causing process and a zigzag-signed time delta — interleaved
// processes each advance their own virtual clock, so merged streams are not
// time-monotonic.
const (
	magic   = "CCLOG1\n"
	magicV2 = "CCLOG2\n"
)

// DefaultBufSize is the buffer size NewWriter and NewReader use. Replay
// pipelines stream logs tens of megabytes long; 64 KiB keeps the underlying
// reads and writes far off the hot path (the old 4 KiB default made
// replay-heavy runs syscall-bound when logs lived on disk).
const DefaultBufSize = 64 << 10

// Header carries run metadata.
type Header struct {
	Benchmark string
	// DurationMicros is the run's declared virtual duration.
	DurationMicros uint64
	// Procs is the number of front-end processes whose events the log
	// interleaves. 0 and 1 both mean a single-process log, written in the
	// historical version-1 format; larger counts select version 2.
	Procs int
}

// maxEventLen bounds one encoded event: the kind byte, then at most six
// varints (process, time delta, and a create's four payload fields).
const maxEventLen = 1 + 6*binary.MaxVarintLen64

// Writer encodes events to a stream.
type Writer struct {
	w        *bufio.Writer
	v2       bool
	lastTime uint64
	events   uint64
	closed   bool
	// buf holds one event while it is encoded. It lives in the Writer
	// because a stack buffer passed to bufio.Writer.Write escapes, which
	// would cost one allocation per event.
	buf [maxEventLen]byte
}

// NewWriter writes the header and returns a Writer buffered at
// DefaultBufSize.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	return NewWriterSize(w, h, DefaultBufSize)
}

// NewWriterSize is NewWriter with an explicit buffer size.
func NewWriterSize(w io.Writer, h Header, size int) (*Writer, error) {
	bw := bufio.NewWriterSize(w, size)
	v2 := h.Procs > 1
	m := magic
	if v2 {
		m = magicV2
	}
	if _, err := bw.WriteString(m); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(h.Benchmark)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(h.Benchmark); err != nil {
		return nil, err
	}
	n = binary.PutUvarint(buf[:], h.DurationMicros)
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	if v2 {
		n = binary.PutUvarint(buf[:], uint64(h.Procs))
		if _, err := bw.Write(buf[:n]); err != nil {
			return nil, err
		}
	}
	return &Writer{w: bw, v2: v2}, nil
}

// Write appends one event. Version-1 (single-process) events must be written
// in non-decreasing time order; version-2 streams interleave per-process
// clocks, so time may step backwards between events and deltas are
// zigzag-signed. A refused event writes nothing and leaves the writer's
// clock where it was.
func (w *Writer) Write(e Event) error {
	if w.closed {
		return errors.New("tracelog: write after close")
	}
	if !w.v2 && e.Time < w.lastTime {
		return fmt.Errorf("tracelog: time went backwards (%d after %d)", e.Time, w.lastTime)
	}
	if e.Proc < 0 {
		return fmt.Errorf("tracelog: negative process ID %d", e.Proc)
	}
	b := append(w.buf[:0], byte(e.Kind))
	if w.v2 {
		b = binary.AppendUvarint(b, uint64(e.Proc))
		b = binary.AppendVarint(b, int64(e.Time)-int64(w.lastTime))
	} else {
		b = binary.AppendUvarint(b, e.Time-w.lastTime)
	}
	switch e.Kind {
	case KindCreate, KindAdopt:
		b = binary.AppendUvarint(b, e.Trace)
		b = binary.AppendUvarint(b, uint64(e.Size))
		b = binary.AppendUvarint(b, uint64(e.Module))
		b = binary.AppendUvarint(b, e.Head)
	case KindAccess, KindPin, KindUnpin:
		b = binary.AppendUvarint(b, e.Trace)
	case KindUnmap:
		b = binary.AppendUvarint(b, uint64(e.Module))
	case KindEnd:
		// no payload
	default:
		return fmt.Errorf("tracelog: unknown kind %d", e.Kind)
	}
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.lastTime = e.Time
	w.events++
	if e.Kind == KindEnd {
		w.closed = true
	}
	return nil
}

// Events returns the number of events written.
func (w *Writer) Events() uint64 { return w.events }

// Flush flushes buffered output. Callers must Flush before using the
// underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// byteSource is what the decoder actually needs: buffered byte-at-a-time
// access plus bulk reads for the name.
type byteSource interface {
	io.Reader
	io.ByteReader
}

// Reader decodes a log stream (either wire version).
type Reader struct {
	r        byteSource
	h        Header
	v2       bool
	lastTime uint64
	done     bool
}

// NewReader parses the header and returns a Reader. Sources that do not
// already support byte-at-a-time reads (plain *os.File, network streams) are
// wrapped in a DefaultBufSize bufio.Reader; sources that do (*bytes.Reader,
// *bufio.Reader, strings.Reader) are used directly, so no bytes past the
// KindEnd marker are consumed and concatenated streams stay readable.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderSize(r, DefaultBufSize)
}

// NewReaderSize is NewReader with an explicit buffer size for sources that
// need wrapping.
func NewReaderSize(r io.Reader, size int) (*Reader, error) {
	br, ok := r.(byteSource)
	if !ok {
		br = bufio.NewReaderSize(r, size)
	}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("tracelog: reading magic: %w", err)
	}
	v2 := false
	switch string(got) {
	case magic:
	case magicV2:
		v2 = true
	default:
		return nil, fmt.Errorf("tracelog: bad magic %q", got)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tracelog: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("tracelog: unreasonable benchmark name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("tracelog: reading name: %w", err)
	}
	dur, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tracelog: reading duration: %w", err)
	}
	h := Header{Benchmark: string(name), DurationMicros: dur}
	if v2 {
		procs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("tracelog: reading process count: %w", err)
		}
		// A version-2 log exists only because it interleaves processes; a
		// count of 0 or 1 is not something any writer produces, and a huge
		// one is line noise. The decoder reads from the network in service
		// deployments, so implausible headers are rejected here rather than
		// allowed to corrupt downstream accounting (a Procs≤1 header would
		// even re-encode as version 1).
		if procs < 2 || procs > maxProcs {
			return nil, fmt.Errorf("tracelog: implausible process count %d for a multi-process log", procs)
		}
		h.Procs = int(procs)
	}
	return &Reader{r: br, h: h, v2: v2}, nil
}

// Decoder plausibility bounds. Values past them mean a corrupt or hostile
// stream, not a big workload: the writer never produces them (Module and
// Size are physically narrower; process counts are bounded by the engine).
const (
	maxProcs     = 1 << 20
	maxModuleID  = 1<<16 - 1
	maxTraceSize = 1<<32 - 1
)

// Header returns the log's metadata.
func (r *Reader) Header() Header { return r.h }

// Next returns the next event, or io.EOF after the KindEnd event (or a
// truncated stream).
func (r *Reader) Next() (Event, error) {
	if r.done {
		return Event{}, io.EOF
	}
	kb, err := r.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			r.done = true
		}
		return Event{}, err
	}
	e := Event{Kind: Kind(kb)}
	if r.v2 {
		proc, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("tracelog: reading process: %w", err)
		}
		if proc > maxProcs {
			return Event{}, fmt.Errorf("tracelog: implausible process ID %d", proc)
		}
		e.Proc = int(proc)
		dt, err := binary.ReadVarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("tracelog: reading time: %w", err)
		}
		r.lastTime = uint64(int64(r.lastTime) + dt)
	} else {
		dt, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("tracelog: reading time: %w", err)
		}
		if r.lastTime+dt < r.lastTime {
			// A version-1 clock is monotonic by contract; a delta that wraps
			// the 64-bit clock is corruption, and letting it through would
			// produce a stream the writer itself refuses to re-encode.
			return Event{}, fmt.Errorf("tracelog: time delta %d overflows the clock", dt)
		}
		r.lastTime += dt
	}
	e.Time = r.lastTime
	switch e.Kind {
	case KindCreate, KindAdopt:
		if e.Trace, err = binary.ReadUvarint(r.r); err != nil {
			return Event{}, err
		}
		var v uint64
		if v, err = binary.ReadUvarint(r.r); err != nil {
			return Event{}, err
		}
		if v > maxTraceSize {
			return Event{}, fmt.Errorf("tracelog: implausible trace size %d", v)
		}
		e.Size = uint32(v)
		if e.Module, err = r.readModule(); err != nil {
			return Event{}, err
		}
		if e.Head, err = binary.ReadUvarint(r.r); err != nil {
			return Event{}, err
		}
	case KindAccess, KindPin, KindUnpin:
		if e.Trace, err = binary.ReadUvarint(r.r); err != nil {
			return Event{}, err
		}
	case KindUnmap:
		if e.Module, err = r.readModule(); err != nil {
			return Event{}, err
		}
	case KindEnd:
		r.done = true
	default:
		return Event{}, fmt.Errorf("tracelog: unknown event kind %d", kb)
	}
	return e, nil
}

// readModule decodes a module ID, rejecting values that cannot have come
// from a writer (module IDs are 16-bit; silent truncation would alias two
// different modules and corrupt unmap accounting).
func (r *Reader) readModule() (uint16, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, err
	}
	if v > maxModuleID {
		return 0, fmt.Errorf("tracelog: implausible module ID %d", v)
	}
	return uint16(v), nil
}

// ReadAll decodes every event in the stream.
func ReadAll(r io.Reader) (Header, []Event, error) {
	return AppendAll(nil, r)
}

// AppendAll decodes every event in the stream and appends them to dst. A
// caller that knows the event count, such as the Writer that produced the
// stream, passes a dst of that capacity and decodes without regrowing. It
// decodes through NextBlock, so a source with a buffered window (a bufio
// Reader, or any source NewReader wraps in one) takes the window decoder;
// on an error dst holds the events decoded before it, as with Next.
func AppendAll(dst []Event, r io.Reader) (Header, []Event, error) {
	rd, err := NewReader(r)
	if err != nil {
		return Header{}, dst, err
	}
	b := GetBlock()
	defer PutBlock(b)
	for {
		err := rd.NextBlock(b)
		for i := range b.N {
			dst = append(dst, b.Event(i))
		}
		if errors.Is(err, io.EOF) {
			return rd.Header(), dst, nil
		}
		if err != nil {
			return rd.Header(), dst, err
		}
	}
}

// Summary aggregates facts about a log that several experiments need.
type Summary struct {
	Header        Header
	Events        int
	Creates       uint64
	CreatedBytes  uint64
	Adoptions     uint64 // cross-process shared-tier attachments (v2 logs)
	Accesses      uint64
	Unmaps        uint64
	UnmappedBytes uint64 // bytes of traces whose module was later unmapped
	EndTime       uint64
	MaxLiveBytes  uint64 // peak of live (created minus unmapped) trace bytes
	TraceSizes    []uint32
}

// Summarize scans a slice of events.
func Summarize(h Header, events []Event) Summary {
	z := NewSummarizer(h)
	for _, e := range events {
		z.Add(e)
	}
	return z.Summary()
}

// Summarizer is the incremental form of Summarize: the same aggregation, fed
// one event (or one EventBlock) at a time, so streaming consumers — the
// gencached buffered session path sizes its cache from a log it never holds
// as a decoded []Event — share the batch scanner's exact accounting.
//
// It keeps no per-trace state. An unmap removes every live byte of its
// module, so the live bytes kept per module answer it; an adoption's body
// was accounted by its creator's KindCreate, so it adds no live bytes. For
// every log the replay accepts (no trace is created twice, or after it was
// adopted) that is the per-trace accounting exactly.
type Summarizer struct {
	s        Summary
	modLive  map[uint16]uint64 // live bytes by module
	live     uint64
	lastTime uint64
	seen     bool
}

// NewSummarizer starts an aggregation for one log.
func NewSummarizer(h Header) *Summarizer {
	return &Summarizer{
		s:       Summary{Header: h},
		modLive: make(map[uint16]uint64),
	}
}

// Add folds one event into the summary.
func (z *Summarizer) Add(e Event) {
	z.s.Events++
	z.seen = true
	z.lastTime = e.Time
	switch e.Kind {
	case KindCreate:
		z.s.Creates++
		z.s.CreatedBytes += uint64(e.Size)
		z.modLive[e.Module] += uint64(e.Size)
		z.live += uint64(e.Size)
		if z.live > z.s.MaxLiveBytes {
			z.s.MaxLiveBytes = z.live
		}
		z.s.TraceSizes = append(z.s.TraceSizes, e.Size)
	case KindAdopt:
		z.s.Adoptions++
	case KindAccess:
		z.s.Accesses++
	case KindUnmap:
		z.s.Unmaps++
		z.s.UnmappedBytes += z.modLive[e.Module]
		z.live -= z.modLive[e.Module]
		delete(z.modLive, e.Module)
	case KindEnd:
		z.s.EndTime = e.Time
	}
}

// AddBlock folds a decoded block into the summary. Runs of accesses — the
// bulk of any log — fold as counter bumps without materializing Events;
// every other kind goes through Add, so the accounting is Add's exactly.
func (z *Summarizer) AddBlock(b *EventBlock) {
	kinds := b.Kind
	for i := 0; i < b.N; {
		if kinds[i] == KindAccess {
			j := i
			for j < b.N && kinds[j] == KindAccess {
				j++
			}
			z.s.Events += j - i
			z.s.Accesses += uint64(j - i)
			z.lastTime = b.Time[j-1]
			z.seen = true
			i = j
			continue
		}
		z.Add(b.Event(i))
		i++
	}
}

// Summary finalizes and returns the aggregation. The Summarizer remains
// usable; further Adds extend the same summary.
func (z *Summarizer) Summary() Summary {
	s := z.s
	if s.EndTime == 0 && z.seen {
		s.EndTime = z.lastTime
	}
	return s
}
