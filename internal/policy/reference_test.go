package policy

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/codecache"
	"repro/internal/idtab"
)

// This file keeps the straightforward implementations the indexed first
// fit, the recency-list LRU and the resumable TRRIP search replaced: a
// linear first-fit walk, a lazily compacted min-heap LRU and a TRRIP victim
// search that scans from the lowest address every time. FuzzPolicyOps runs
// the same operation sequence against each production policy and its
// reference and requires identical decisions.

// errPlacementDiverged reports that the arena's first fit picked a different
// run than the reference walk.
var errPlacementDiverged = errors.New("reference: first fit diverged from the linear walk")

// refPlaceFirstFit is the reference first fit: walk the residents in address
// order to the lowest gap of at least f.Size bytes, then place f and require
// the arena to have put it there.
func refPlaceFirstFit(a *codecache.Arena, f codecache.Fragment) error {
	if f.Size == 0 || f.Size > a.Capacity() || a.Contains(f.ID) {
		return a.PlaceFirstFit(f) // the arena's refusal
	}
	var end, at uint64
	fits := false
	a.Visit(func(r *codecache.Fragment) bool {
		off, _ := a.Offset(r.ID)
		if off-end >= f.Size {
			at, fits = end, true
			return false
		}
		end = off + r.Size
		return true
	})
	if !fits && a.Capacity()-end >= f.Size {
		at, fits = end, true
	}
	if !fits {
		return codecache.ErrNoSpace
	}
	if err := a.PlaceFirstFit(f); err != nil {
		return fmt.Errorf("%w: walk fits %d bytes at %d, arena says %v", errPlacementDiverged, f.Size, at, err)
	}
	if off, _ := a.Offset(f.ID); off != at {
		return fmt.Errorf("%w: walk places %d bytes at %d, arena at %d", errPlacementDiverged, f.Size, at, off)
	}
	return nil
}

// refLRU is the heap LRU: lazy pushes on every access, stale entries
// discarded at pop time, pinned entries held aside and re-pushed, and a full
// scan when the heap runs dry.
type refLRU struct {
	h    refHeap
	held []refEntry
}

type refEntry struct{ id, last uint64 }

type refHeap []refEntry

func (h *refHeap) push(e refEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].last <= s[i].last {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *refHeap) popMin() (refEntry, bool) {
	s := *h
	if len(s) == 0 {
		return refEntry{}, false
	}
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.siftDown(0)
	return min, true
}

func (h *refHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && s[r].last < s[child].last {
			child = r
		}
		if s[i].last <= s[child].last {
			return
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
}

func (h *refHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (l *refLRU) Name() string { return "lru" }

func (l *refLRU) OnAccess(a *codecache.Arena, id uint64) {
	if f, ok := a.Lookup(id); ok {
		l.h.push(refEntry{id: id, last: f.LastAccess})
		l.maybeCompact(a)
	}
}

// maybeCompact drops stale entries once they outnumber live ones.
func (l *refLRU) maybeCompact(a *codecache.Arena) {
	if len(l.h) <= 64+2*a.Len() {
		return
	}
	live := l.h[:0]
	for _, e := range l.h {
		if f, ok := a.Lookup(e.id); ok && f.LastAccess == e.last {
			live = append(live, e)
		}
	}
	l.h = live
	l.h.init()
}

func (l *refLRU) Adopt(a *codecache.Arena) {
	a.Visit(func(f *codecache.Fragment) bool {
		l.h.push(refEntry{id: f.ID, last: f.LastAccess})
		return true
	})
}

func (l *refLRU) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if f.Size > a.Capacity() {
		return codecache.ErrTooBig
	}
	for {
		err := refPlaceFirstFit(a, f)
		if err == nil {
			l.h.push(refEntry{id: f.ID, last: a.Clock()})
			return nil
		}
		if !errors.Is(err, codecache.ErrNoSpace) {
			return err
		}
		victim, ok := l.victim(a)
		if !ok {
			return codecache.ErrNoSpace
		}
		v, derr := a.Delete(victim, false)
		if derr != nil {
			continue
		}
		if onEvict != nil {
			onEvict(v)
		}
	}
}

func (l *refLRU) victim(a *codecache.Arena) (uint64, bool) {
	l.held = l.held[:0]
	defer func() {
		for _, e := range l.held {
			l.h.push(e)
		}
	}()
	for {
		e, ok := l.h.popMin()
		if !ok {
			var bestID, bestLast uint64
			found := false
			a.Visit(func(f *codecache.Fragment) bool {
				if f.Undeletable || f.Refs > 0 {
					return true
				}
				if !found || f.LastAccess < bestLast {
					bestID, bestLast, found = f.ID, f.LastAccess, true
				}
				return true
			})
			return bestID, found
		}
		f, ok := a.Lookup(e.id)
		if !ok || f.LastAccess != e.last {
			continue
		}
		if f.Undeletable || f.Refs > 0 {
			l.held = append(l.held, e)
			continue
		}
		return e.id, true
	}
}

// refTRRIP is TRRIP with the victim search scanning from the lowest address
// on every eviction.
type refTRRIP struct {
	max, cold, warm uint8
	hot             uint64
	rrpv            map[uint64]uint8
}

func newRefTRRIP(t *TRRIP) *refTRRIP {
	return &refTRRIP{max: t.Max, cold: t.Cold, warm: t.Warm, hot: t.Hot, rrpv: map[uint64]uint8{}}
}

func (t *refTRRIP) Name() string { return "trrip" }

func (t *refTRRIP) classify(f codecache.Fragment) uint8 {
	switch {
	case f.AccessCount >= t.hot:
		return 0
	case f.AccessCount > 0:
		return t.warm
	default:
		return t.cold
	}
}

func (t *refTRRIP) OnAccess(a *codecache.Arena, id uint64) { t.rrpv[id] = 0 }

func (t *refTRRIP) Adopt(a *codecache.Arena) {
	a.Visit(func(f *codecache.Fragment) bool {
		t.rrpv[f.ID] = t.classify(*f)
		return true
	})
}

func (t *refTRRIP) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if f.Size > a.Capacity() {
		return codecache.ErrTooBig
	}
	for {
		err := refPlaceFirstFit(a, f)
		if err == nil {
			t.rrpv[f.ID] = t.classify(f)
			return nil
		}
		if !errors.Is(err, codecache.ErrNoSpace) {
			return err
		}
		victim, ok := t.victim(a)
		if !ok {
			return codecache.ErrNoSpace
		}
		v, derr := a.Delete(victim, false)
		if derr != nil {
			continue
		}
		if onEvict != nil {
			onEvict(v)
		}
	}
}

func (t *refTRRIP) victim(a *codecache.Arena) (uint64, bool) {
	var bestID uint64
	var bestVal uint8
	found := false
	a.Visit(func(f *codecache.Fragment) bool {
		if f.Undeletable || f.Refs > 0 {
			return true
		}
		v := min(t.rrpv[f.ID], t.max)
		if !found || v > bestVal {
			bestID, bestVal, found = f.ID, v, true
			if bestVal == t.max {
				return false
			}
		}
		return true
	})
	if !found {
		return 0, false
	}
	if age := t.max - bestVal; age > 0 {
		a.Visit(func(f *codecache.Fragment) bool {
			if f.Undeletable || f.Refs > 0 || f.ID == bestID {
				return true
			}
			t.rrpv[f.ID] = uint8(min(uint16(t.rrpv[f.ID])+uint16(age), uint16(t.max)))
			return true
		})
	}
	return bestID, true
}

// refFlushWhenFull and refCircularFirstFit are the unchanged policies over
// the reference first fit.
type refFlushWhenFull struct{}

func (refFlushWhenFull) Name() string                      { return "flush-when-full" }
func (refFlushWhenFull) OnAccess(*codecache.Arena, uint64) {}
func (refFlushWhenFull) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if f.Size > a.Capacity() {
		return codecache.ErrTooBig
	}
	if err := refPlaceFirstFit(a, f); !errors.Is(err, codecache.ErrNoSpace) {
		return err
	}
	a.Flush(onEvict)
	return refPlaceFirstFit(a, f)
}

type refCircularFirstFit struct{}

func (refCircularFirstFit) Name() string                      { return "circular-first-fit" }
func (refCircularFirstFit) OnAccess(*codecache.Arena, uint64) {}
func (refCircularFirstFit) Insert(a *codecache.Arena, f codecache.Fragment, onEvict func(codecache.Fragment)) error {
	if err := refPlaceFirstFit(a, f); !errors.Is(err, codecache.ErrNoSpace) {
		return err
	}
	return a.Insert(f, onEvict)
}

// ---------------------------------------------------------------------------
// The differential fuzzer.

// Each op is three bytes: an opcode (mod opCount) and two operands x, y.
// Trace IDs come from x%fuzzIDs (see fuzzID), so evicted traces come back
// under their old IDs; an insert's heat (AccessCount, which seeds TRRIP's
// class) is x/fuzzIDs and its size 8 + 2y bytes.
const (
	opInsert  = 0 // 0–5
	opAccess  = 6 // 6–9: Access, then OnAccess on a hit
	opPin     = 10
	opRef     = 11 // Retain when y is odd, else Release
	opDelete  = 12 // forced Delete
	opModule  = 13 // DeleteModule(x % 4)
	opResize  = 14 // grow or shrink within [512, 1535]
	opFlush   = 15
	opAdopt   = 16 // fresh policy instances, primed with Adopt
	opCount   = 17
	fuzzIDs   = 48
	fuzzArena = 1024
	fuzzOps   = 512
)

// fuzzID maps an operand to a trace ID: 1..fuzzIDs, with the top eight
// moved past idtab.Dense so the per-ID tables' maps are exercised too.
func fuzzID(x byte) uint64 {
	id := 1 + uint64(x)%fuzzIDs
	if id > fuzzIDs-8 {
		id += idtab.Dense
	}
	return id
}

// differentialCases pairs each policy with the reference it must match.
var differentialCases = []struct {
	spec string
	ref  func(Local) Local // builds the reference from a fresh production instance
}{
	{"lru", func(Local) Local { return &refLRU{} }},
	{"trrip", func(p Local) Local { return newRefTRRIP(p.(*TRRIP)) }},
	{"trrip:cold=7,warm=7", func(p Local) Local { return newRefTRRIP(p.(*TRRIP)) }},
	{"circular-first-fit", func(Local) Local { return refCircularFirstFit{} }},
	{"flush-when-full", func(Local) Local { return refFlushWhenFull{} }},
}

// fuzzSide is one implementation's world: its arena, its policy and the
// fragments it has given up so far, in order.
type fuzzSide struct {
	a    *codecache.Arena
	p    Local
	gone []uint64
}

func (s *fuzzSide) onEvict(v codecache.Fragment) { s.gone = append(s.gone, v.ID) }

// apply runs one op and renders its outcome.
func (s *fuzzSide) apply(op, x, y byte, fresh func() Local) string {
	id := fuzzID(x)
	switch {
	case op < opAccess:
		f := codecache.Fragment{ID: id, Size: 8 + 2*uint64(y), Module: uint16(id % 4), AccessCount: uint64(x) / fuzzIDs}
		return fmt.Sprint(s.p.Insert(s.a, f, s.onEvict))
	case op < opPin:
		hit := s.a.Access(id)
		if hit {
			s.p.OnAccess(s.a, id)
		}
		return fmt.Sprint(hit)
	case op == opPin:
		return fmt.Sprint(s.a.SetUndeletable(id, y&1 == 1))
	case op == opRef:
		if y&1 == 1 {
			return fmt.Sprint(s.a.Retain(id))
		}
		n, ok := s.a.Release(id)
		return fmt.Sprint(n, ok)
	case op == opDelete:
		_, err := s.a.Delete(id, true)
		return fmt.Sprint(err)
	case op == opModule:
		return fmt.Sprint(len(s.a.DeleteModule(uint16(x % 4))))
	case op == opResize:
		return fmt.Sprint(s.a.Resize(512+(uint64(x)<<8|uint64(y))%1024, s.onEvict))
	case op == opFlush:
		return fmt.Sprint(s.a.Flush(s.onEvict))
	default:
		s.p = fresh()
		if ad, ok := s.p.(Adopter); ok {
			ad.Adopt(s.a)
		}
		return ""
	}
}

// layout renders the arena's residents and their offsets in address order,
// with each resident's RRPV under TRRIP.
func (s *fuzzSide) layout() string {
	out := ""
	s.a.Visit(func(f *codecache.Fragment) bool {
		off, _ := s.a.Offset(f.ID)
		out += fmt.Sprintf(" %d@%d", f.ID, off)
		switch p := s.p.(type) {
		case *TRRIP:
			out += fmt.Sprintf("=%d", p.get(f.ID))
		case *refTRRIP:
			out += fmt.Sprintf("=%d", min(p.rrpv[f.ID], p.max))
		}
		return true
	})
	return out
}

// runDifferential drives one policy and its reference through the op
// sequence encoded in data.
func runDifferential(t *testing.T, spec string, ref func(Local) Local, data []byte) {
	fac, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	newSide := &fuzzSide{a: codecache.New(fuzzArena), p: fac.New()}
	refSide := &fuzzSide{a: codecache.New(fuzzArena), p: ref(fac.New())}
	for i := 0; i+3 <= len(data) && i < 3*fuzzOps; i += 3 {
		op, x, y := data[i]%opCount, data[i+1], data[i+2]
		got := newSide.apply(op, x, y, fac.New)
		want := refSide.apply(op, x, y, func() Local { return ref(fac.New()) })
		step := fmt.Sprintf("%s: op %d (%d %d %d)", spec, i/3, op, x, y)
		if got != want {
			t.Fatalf("%s: returned %s, reference %s", step, got, want)
		}
		if fmt.Sprint(newSide.gone) != fmt.Sprint(refSide.gone) {
			t.Fatalf("%s: removed %v, reference %v", step, newSide.gone, refSide.gone)
		}
		for _, s := range []*fuzzSide{newSide, refSide} {
			if err := s.a.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		if got, want := newSide.layout(), refSide.layout(); got != want {
			t.Fatalf("%s: layout%s, reference%s", step, got, want)
		}
	}
}

// Seed helpers: ops spelled out, sizes in bytes (even, 8–518).
type fuzzOp [3]byte

func insertOp(id uint64, heat byte, size int) fuzzOp {
	return fuzzOp{opInsert, byte(id-1) + heat*fuzzIDs, byte((size - 8) / 2)}
}
func accessOp(id uint64) fuzzOp           { return fuzzOp{opAccess, byte(id - 1), 0} }
func pinOp(id uint64, pinned bool) fuzzOp { return fuzzOp{opPin, byte(id - 1), b2u(pinned)} }
func deleteOp(id uint64) fuzzOp           { return fuzzOp{opDelete, byte(id - 1), 0} }
func adoptOp() fuzzOp                     { return fuzzOp{opAdopt, 0, 0} }

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// fillOps inserts traces lo..hi, each size bytes at the given heat.
func fillOps(lo, hi uint64, heat byte, size int) []fuzzOp {
	var ops []fuzzOp
	for id := lo; id <= hi; id++ {
		ops = append(ops, insertOp(id, heat, size))
	}
	return ops
}

func encodeOps(groups ...[]fuzzOp) []byte {
	var out []byte
	for _, g := range groups {
		for _, op := range g {
			out = append(out, op[:]...)
		}
	}
	return out
}

const (
	cold = 0 // AccessCount 0: TRRIP's Cold class
	hot  = 2 // AccessCount 2: TRRIP class 0
)

// fuzzSeeds hold one case per TRRIP resume hazard, each failing if its rule
// is dropped, and one mid-run Adopt. Ten 100-byte traces fill the
// 1024-byte arena.
var fuzzSeeds = [][]byte{
	// Unpinned Max behind the resume point. A trace aged to Max is pinned
	// when a search takes the next Max past it, then unpinned: the following
	// search must take it. Under LRU the pinned trace must also keep its
	// standing at the old end.
	encodeOps(
		fillOps(1, 10, cold, 100),
		[]fuzzOp{
			insertOp(11, cold, 100), // full scan: evicts 1, ages 2..10 to Max
			pinOp(2, true),
			insertOp(12, cold, 100), // takes 3; the resume point must stay before 2
			pinOp(2, false),
			insertOp(13, cold, 100), // must take 2
		}),
	// Resume trace regenerated elsewhere. The resume trace (11 at offset 0)
	// is deleted and regenerated at offset 500: the next search must start
	// from the head, not after 11.
	encodeOps(
		fillOps(1, 10, cold, 100),
		[]fuzzOp{
			insertOp(11, cold, 100), // evicts 1, ages 2..10 to Max
			insertOp(12, cold, 100), // takes 2; resumes after 11
			deleteOp(6),
			deleteOp(11),
			insertOp(13, hot, 100),  // fills the hole at 0
			insertOp(11, cold, 100), // 11 returns at 500
			insertOp(14, cold, 100), // must take 3, not 7
		}),
	// Max insert below the resume point. Under cold=7 a fresh trace inserts
	// at Max; first fit drops one into a hole below the resume point, and the
	// next search must take it.
	encodeOps(
		fillOps(1, 3, hot, 100),
		fillOps(4, 10, cold, 100),
		[]fuzzOp{
			insertOp(11, hot, 100), // takes 4; resumes after 3
			deleteOp(2),
			insertOp(12, cold, 100), // lands at 100, below the resume point
			insertOp(13, hot, 100),  // must take 12 under cold=7
		}),
	// Mid-run Adopt. A policy installed mid-run must rank inherited residents
	// by their recency and heat, not by address.
	encodeOps(
		fillOps(1, 10, cold, 100),
		[]fuzzOp{accessOp(5), accessOp(3), accessOp(1), accessOp(5), adoptOp()},
		fillOps(11, 16, cold, 100),
	),
}

// FuzzPolicyOps runs one op sequence against lru, trrip, trrip at cold=7
// and warm=7, circular-first-fit and flush-when-full, and against each one's
// reference: the same results and errors, the same victims in the same
// order, the same layout (and TRRIP predictions), and CheckInvariants after
// every op.
func FuzzPolicyOps(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range differentialCases {
			runDifferential(t, c.spec, c.ref, data)
		}
	})
}
