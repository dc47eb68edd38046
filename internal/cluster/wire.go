package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The trace-exchange wire format. Every message starts with the versioned
// magic and a type byte; integers are uvarints, strings length-prefixed.
// Decoders are bounded the same way the tracelog reader is: shard IDs,
// batch counts, name lengths, and payload sizes are all range-checked
// before any allocation sized by attacker-controlled input, and malformed
// bytes come back as errors, never panics (FuzzWire pins this).
const (
	// Magic versions the exchange framing. Bump it for any incompatible
	// change; peers on different versions fail closed (the session just
	// regenerates locally, which is always correct).
	Magic = "CCXCH1"

	// ExchangeContentType labels exchange bodies on the HTTP transport.
	ExchangeContentType = "application/x-gencache-exchange"

	// MaxNameLen bounds benchmark and node-ID strings on the wire.
	MaxNameLen = 255
	// MaxBatch bounds the records of one replication batch.
	MaxBatch = 4096
	// MaxTraceBytes bounds a single trace's declared size.
	MaxTraceBytes = 1 << 40
)

// Message type bytes.
const (
	msgLookupReq byte = iota + 1
	msgLookupResp
	msgReplicateReq
	msgReplicateResp
)

// ErrWire reports a malformed or out-of-bounds exchange message.
var ErrWire = errors.New("cluster: malformed exchange message")

// LookupRequest asks a shard owner whether it holds a publication.
type LookupRequest struct {
	Key   Key
	Size  uint64 // adopter's required size; owner answers found only on match
	Shard uint32 // requester's placement, validated against the owner's ring
}

// LookupResponse answers a LookupRequest.
type LookupResponse struct {
	Found   bool
	TraceID uint64 // owner-local trace ID (IDs are node-local, never shared identity)
	Size    uint64
}

// Replica is one publication being replicated to its shard owner.
type Replica struct {
	Key   Key
	Size  uint64
	Shard uint32
}

// ReplicateRequest pushes a batch of publications to their shard owner.
type ReplicateRequest struct {
	Origin  string // publishing node's ID
	Records []Replica
}

// ReplicateResponse reports how the owner disposed of a batch.
type ReplicateResponse struct {
	Accepted uint32
	Rejected uint32 // wrong shard, unmappable module, or no arena space
}

// enc is a little append-only writer over the shared primitives.
func encHeader(msg byte) []byte {
	b := make([]byte, 0, 64)
	b = append(b, Magic...)
	return append(b, msg)
}

func encU64(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func encStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// dec is a bounds-checked reader; the first error sticks.
type dec struct {
	buf []byte
	err error
}

func newDec(b []byte, msg byte) *dec {
	d := &dec{buf: b}
	if len(b) < len(Magic)+1 || string(b[:len(Magic)]) != Magic {
		d.err = fmt.Errorf("%w: bad magic", ErrWire)
		return d
	}
	if b[len(Magic)] != msg {
		d.err = fmt.Errorf("%w: message type %d, want %d", ErrWire, b[len(Magic)], msg)
		return d
	}
	d.buf = b[len(Magic)+1:]
	return d
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated varint", ErrWire)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *dec) u32bound(what string, max uint64) uint32 {
	v := d.u64()
	if d.err == nil && v > max {
		d.err = fmt.Errorf("%w: %s %d exceeds bound %d", ErrWire, what, v, max)
	}
	return uint32(v)
}

func (d *dec) u16(what string) uint16 {
	v := d.u64()
	if d.err == nil && v > 0xFFFF {
		d.err = fmt.Errorf("%w: %s %d exceeds 16 bits", ErrWire, what, v)
	}
	return uint16(v)
}

func (d *dec) size(what string) uint64 {
	v := d.u64()
	if d.err == nil && (v == 0 || v > MaxTraceBytes) {
		d.err = fmt.Errorf("%w: %s %d out of range", ErrWire, what, v)
	}
	return v
}

func (d *dec) str(what string, max int) string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(max) {
		d.err = fmt.Errorf("%w: %s length %d exceeds bound %d", ErrWire, what, n, max)
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.err = fmt.Errorf("%w: truncated %s", ErrWire, what)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *dec) bool(what string) bool {
	v := d.u64()
	if d.err == nil && v > 1 {
		d.err = fmt.Errorf("%w: %s %d is not a bool", ErrWire, what, v)
	}
	return v == 1
}

// done rejects trailing garbage: a whole-message decode must consume
// everything.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrWire, len(d.buf))
	}
	return nil
}

func encKey(b []byte, k Key) []byte {
	b = encStr(b, k.Bench)
	b = encU64(b, uint64(k.Module))
	return encU64(b, k.Head)
}

func (d *dec) key() Key {
	var k Key
	k.Bench = d.str("benchmark", MaxNameLen)
	k.Module = d.u16("module")
	k.Head = d.u64()
	return k
}

// EncodeLookupRequest renders q in the exchange framing.
func EncodeLookupRequest(q LookupRequest) []byte {
	b := encHeader(msgLookupReq)
	b = encKey(b, q.Key)
	b = encU64(b, q.Size)
	return encU64(b, uint64(q.Shard))
}

// DecodeLookupRequest parses a lookup request, bounds-checked.
func DecodeLookupRequest(b []byte) (LookupRequest, error) {
	d := newDec(b, msgLookupReq)
	var q LookupRequest
	q.Key = d.key()
	q.Size = d.size("size")
	q.Shard = d.u32bound("shard", MaxShards-1)
	return q, d.done()
}

// EncodeLookupResponse renders p in the exchange framing.
func EncodeLookupResponse(p LookupResponse) []byte {
	b := encHeader(msgLookupResp)
	if p.Found {
		b = encU64(b, 1)
	} else {
		b = encU64(b, 0)
	}
	b = encU64(b, p.TraceID)
	return encU64(b, p.Size)
}

// DecodeLookupResponse parses a lookup response.
func DecodeLookupResponse(b []byte) (LookupResponse, error) {
	d := newDec(b, msgLookupResp)
	var p LookupResponse
	p.Found = d.bool("found")
	p.TraceID = d.u64()
	p.Size = d.u64()
	if d.err == nil && p.Found && (p.Size == 0 || p.Size > MaxTraceBytes) {
		d.err = fmt.Errorf("%w: found size %d out of range", ErrWire, p.Size)
	}
	return p, d.done()
}

// EncodeReplicateRequest renders q in the exchange framing.
func EncodeReplicateRequest(q ReplicateRequest) []byte {
	b := encHeader(msgReplicateReq)
	b = encStr(b, q.Origin)
	b = encU64(b, uint64(len(q.Records)))
	for _, r := range q.Records {
		b = encKey(b, r.Key)
		b = encU64(b, r.Size)
		b = encU64(b, uint64(r.Shard))
	}
	return b
}

// DecodeReplicateRequest parses a replication batch, bounds-checked on the
// record count, shard IDs, and sizes before any allocation.
func DecodeReplicateRequest(b []byte) (ReplicateRequest, error) {
	d := newDec(b, msgReplicateReq)
	var q ReplicateRequest
	q.Origin = d.str("origin", MaxNameLen)
	n := d.u64()
	if d.err == nil && n > MaxBatch {
		d.err = fmt.Errorf("%w: batch of %d exceeds %d", ErrWire, n, MaxBatch)
	}
	if d.err != nil {
		return q, d.err
	}
	q.Records = make([]Replica, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var r Replica
		r.Key = d.key()
		r.Size = d.size("size")
		r.Shard = d.u32bound("shard", MaxShards-1)
		q.Records = append(q.Records, r)
	}
	return q, d.done()
}

// EncodeReplicateResponse renders p in the exchange framing.
func EncodeReplicateResponse(p ReplicateResponse) []byte {
	b := encHeader(msgReplicateResp)
	b = encU64(b, uint64(p.Accepted))
	return encU64(b, uint64(p.Rejected))
}

// DecodeReplicateResponse parses a replication response.
func DecodeReplicateResponse(b []byte) (ReplicateResponse, error) {
	d := newDec(b, msgReplicateResp)
	var p ReplicateResponse
	p.Accepted = d.u32bound("accepted", 1<<32-1)
	p.Rejected = d.u32bound("rejected", 1<<32-1)
	return p, d.done()
}
