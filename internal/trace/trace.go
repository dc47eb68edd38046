// Package trace implements Next-Executed-Tail (NET) trace selection and
// superblock construction (§4.1). A Recorder follows execution from a hot
// trace head, collecting basic blocks until a backward branch is taken, an
// existing trace head is reached, or the trace hits its block limit. Build
// straightens the recorded blocks into a single-entry multiple-exit
// superblock: conditional branches are inverted so the hot path falls
// through, off-trace edges become exit stubs, and the whole body can be
// encoded and relocated between code caches.
package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
)

// Size model constants, chosen to mirror DynamoRIO-era overheads: every
// trace carries an entry prefix, and every off-trace edge needs an exit stub
// that spills state and jumps to the dispatcher.
const (
	// PrefixBytes is the per-trace entry sequence.
	PrefixBytes = 32
	// ExitStubBytes is the per-exit stub.
	ExitStubBytes = 40
	// DefaultMaxBlocks bounds trace length, like DynamoRIO's trace size cap.
	DefaultMaxBlocks = 32
)

// Trace is a superblock resident in (or evicted from) the trace cache. Build
// is its only constructor; persisted traces are restored through it too.
type Trace struct {
	ID     uint64
	Head   uint64
	Module program.ModuleID
	// BlockAddrs lists the original addresses of the member blocks in
	// execution order, and BlockInstrs[i] is the guest instruction count of
	// member i: the engine counts the instructions of blocks it follows
	// inside the body without looking the blocks up.
	BlockAddrs  []uint64
	BlockInstrs []uint32
	// Code is the straightened instruction sequence.
	Code []isa.Inst
	// Exits is the number of off-trace edges (each costs an exit stub).
	Exits int
	// ExitTargets holds the statically known off-trace targets; the engine
	// marks them as trace heads ("exit from an existing trace").
	ExitTargets []uint64
}

// CodeBytes returns the encoded size of the straightened body.
func (t *Trace) CodeBytes() int { return isa.CodeSize(t.Code) }

// Size returns the trace's total footprint in the trace cache: body plus
// prefix plus exit stubs.
func (t *Trace) Size() int {
	return t.CodeBytes() + PrefixBytes + t.Exits*ExitStubBytes
}

// Len returns the number of member blocks.
func (t *Trace) Len() int { return len(t.BlockAddrs) }

// StopReason says why a recording ended.
type StopReason int

// Stop reasons.
const (
	StopNone           StopReason = iota // still recording
	StopBackwardBranch                   // a backward branch was taken
	StopExistingTrace                    // execution reached another trace's head
	StopMaxBlocks                        // the block limit was hit
	StopSyscall                          // the last block ended in a syscall
	StopModuleCross                      // execution left the head's module
	StopAborted                          // recording was abandoned (e.g. module unload)
)

var stopNames = [...]string{"none", "backward-branch", "existing-trace", "max-blocks", "syscall", "module-cross", "aborted"}

func (r StopReason) String() string {
	if int(r) < len(stopNames) {
		return stopNames[r]
	}
	return fmt.Sprintf("stop(%d)", int(r))
}

// Recorder accumulates the blocks of one trace being generated.
type Recorder struct {
	MaxBlocks int
	blocks    []*program.Block
	reason    StopReason
}

// NewRecorder starts a recording at the given head block.
func NewRecorder(head *program.Block, maxBlocks int) *Recorder {
	if maxBlocks <= 0 {
		maxBlocks = DefaultMaxBlocks
	}
	r := &Recorder{MaxBlocks: maxBlocks}
	r.blocks = append(r.blocks, head)
	if head.Last().Op == isa.OpSyscall {
		r.reason = StopSyscall
	}
	return r
}

// Blocks returns the blocks recorded so far.
func (r *Recorder) Blocks() []*program.Block { return r.blocks }

// Reason returns why recording stopped (StopNone while recording).
func (r *Recorder) Reason() StopReason { return r.reason }

// Done reports whether recording has ended.
func (r *Recorder) Done() bool { return r.reason != StopNone }

// Abort ends the recording without materializing a trace.
func (r *Recorder) Abort() { r.reason = StopAborted }

// Observe processes the next executed block. isTraceHead reports whether an
// address is the head of an already generated trace. It returns true when
// recording has ended; the current block is *not* part of the trace when
// the stop reason is StopBackwardBranch, StopExistingTrace, or
// StopModuleCross.
func (r *Recorder) Observe(next *program.Block, isTraceHead func(addr uint64) bool) bool {
	if r.Done() {
		return true
	}
	last := r.blocks[len(r.blocks)-1]

	// (a) Trace generation continues until a backward branch is taken.
	if next.Addr <= last.Addr {
		r.reason = StopBackwardBranch
		return true
	}
	// (b) ... or the start of an existing trace is encountered.
	if isTraceHead(next.Addr) {
		r.reason = StopExistingTrace
		return true
	}
	// Keep traces within one module so program-forced evictions map
	// one-to-one onto traces.
	if next.Module != r.blocks[0].Module {
		r.reason = StopModuleCross
		return true
	}

	r.blocks = append(r.blocks, next)
	if next.Last().Op == isa.OpSyscall {
		// Syscalls always end a trace; the block itself is included.
		r.reason = StopSyscall
		return true
	}
	if len(r.blocks) >= r.MaxBlocks {
		r.reason = StopMaxBlocks
		return true
	}
	return false
}

// Build straightens recorded blocks into a superblock.
//
// For every non-final block the terminator is rewritten so the trace's hot
// path falls through:
//
//   - an unconditional jump to the next member block is deleted;
//   - a conditional branch whose taken side is the next member block is
//     inverted, so the off-trace side becomes a conditional exit;
//   - a conditional branch that fell through to the next member block keeps
//     its sense, its taken side becoming a conditional exit;
//   - calls whose target is the next member block are kept (the callee is
//     inlined into the trace); indirect transfers are kept and cost an exit.
//
// The final block keeps its terminator; its off-trace edges are exits.
func Build(id uint64, blocks []*program.Block) (*Trace, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("trace: empty block list")
	}
	t := &Trace{
		ID:          id,
		Head:        blocks[0].Addr,
		Module:      blocks[0].Module,
		BlockAddrs:  make([]uint64, 0, len(blocks)),
		BlockInstrs: make([]uint32, 0, len(blocks)),
	}
	member := make(map[uint64]bool, len(blocks))
	for _, b := range blocks {
		member[b.Addr] = true
	}
	addExit := func(target uint64) {
		t.Exits++
		if target != 0 && !member[target] {
			t.ExitTargets = append(t.ExitTargets, target)
		}
	}

	for i, b := range blocks {
		t.BlockAddrs = append(t.BlockAddrs, b.Addr)
		t.BlockInstrs = append(t.BlockInstrs, uint32(len(b.Code)))
		body := b.Code[:len(b.Code)-1]
		t.Code = append(t.Code, body...)
		term := b.Last()

		if i == len(blocks)-1 {
			// Final block: keep the terminator as the trace's tail.
			t.Code = append(t.Code, term)
			switch {
			case term.Op == isa.OpJcc:
				addExit(term.Target)
				addExit(blocks[i].FallThrough())
			case term.IsDirect(): // jmp, call
				addExit(term.Target)
				if term.IsCall() {
					addExit(blocks[i].FallThrough())
				}
			case term.IsIndirect(), term.Op == isa.OpSyscall:
				addExit(0) // dynamic target: stub without a static address
			case term.Op == isa.OpHalt:
				// no exit
			}
			continue
		}

		next := blocks[i+1]
		switch term.Op {
		case isa.OpJmp:
			if term.Target != next.Addr {
				return nil, fmt.Errorf("trace: block %#x jumps to %#x but trace continues at %#x", b.Addr, term.Target, next.Addr)
			}
			// Straightened away: fall through inside the trace.
		case isa.OpJcc:
			ex := term
			if term.Target == next.Addr {
				// Taken side stays in the trace: invert so the exit is the
				// original fall-through.
				ex.Cond = term.Cond.Negate()
				ex.Target = b.FallThrough()
			}
			// Otherwise execution fell through into next; the taken side is
			// already the exit.
			t.Code = append(t.Code, ex)
			addExit(ex.Target)
		case isa.OpCall:
			if term.Target != next.Addr {
				return nil, fmt.Errorf("trace: block %#x calls %#x but trace continues at %#x", b.Addr, term.Target, next.Addr)
			}
			t.Code = append(t.Code, term) // callee inlined into the trace
		case isa.OpCallInd, isa.OpJmpInd, isa.OpRet:
			// Kept inline with a dynamic-target exit check.
			t.Code = append(t.Code, term)
			addExit(0)
		case isa.OpSyscall:
			return nil, fmt.Errorf("trace: syscall block %#x is not last", b.Addr)
		case isa.OpHalt:
			return nil, fmt.Errorf("trace: halt block %#x is not last", b.Addr)
		default:
			return nil, fmt.Errorf("trace: block %#x has unexpected terminator %s", b.Addr, term)
		}
	}
	return t, nil
}
