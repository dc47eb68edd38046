// Package program models guest program images: modules (the analogue of
// executables and DLLs), functions, basic blocks, and the address space they
// occupy. Images are what the virtual machine interprets and what the
// dynamic optimizer translates.
//
// Modules matter to the reproduction because the paper's interactive
// workloads constantly load and unload DLLs; every unload forces the
// optimizer to delete the corresponding traces from its code cache
// (program-forced evictions, paper §3.4 and §4.2).
package program

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// ModuleID identifies a module within an image.
type ModuleID uint16

// NoModule is the ModuleID used for addresses that belong to no module.
const NoModule ModuleID = 0xffff

// Block is a single-entry single-exit instruction sequence.
type Block struct {
	Addr   uint64
	Module ModuleID
	Code   []isa.Inst

	// Index is the block's dense image-wide index, assigned at Build time in
	// address order. It is the key into every slice-indexed side table the
	// dynamic optimizer keeps (trace-by-head, head counters, bb-cache
	// residency), which is what lets the steady-state dispatch loop avoid
	// map lookups entirely.
	Index int32

	size int
}

// Size returns the encoded size of the block in bytes.
func (b *Block) Size() int {
	if b.size == 0 {
		b.size = isa.CodeSize(b.Code)
	}
	return b.size
}

// Last returns the block's final (terminating) instruction.
func (b *Block) Last() isa.Inst {
	if len(b.Code) == 0 {
		return isa.Inst{}
	}
	return b.Code[len(b.Code)-1]
}

// LastAddr returns the address of the block's final instruction.
func (b *Block) LastAddr() uint64 {
	a := b.Addr
	for i := 0; i < len(b.Code)-1; i++ {
		a += uint64(b.Code[i].Size())
	}
	return a
}

// End returns the address one past the block's last byte.
func (b *Block) End() uint64 { return b.Addr + uint64(b.Size()) }

// FallThrough returns the address execution reaches when the terminating
// instruction does not transfer control (conditional branch not taken,
// return from a call, resumption after a syscall). For unconditional
// transfers it still returns the address after the block, which is only
// meaningful for calls and syscalls.
func (b *Block) FallThrough() uint64 { return b.End() }

// Function groups the blocks of one procedure.
type Function struct {
	Name   string
	Module ModuleID
	Entry  uint64
	Blocks []*Block
}

// Size returns the total code bytes of the function.
func (f *Function) Size() int {
	n := 0
	for _, b := range f.Blocks {
		n += b.Size()
	}
	return n
}

// Module is a contiguous code region that can be mapped and unmapped as a
// unit, like a Windows DLL.
type Module struct {
	ID         ModuleID
	Name       string
	Base       uint64
	Unloadable bool
	Functions  []*Function

	size uint64

	// blockIdx is the module's dense block-lookup table: blockIdx[addr-Base]
	// holds the image-wide block index of the block starting at addr, or -1.
	// It is nil for modules larger than denseModuleLimit (those fall back to
	// the map) and is only built when the module base follows the builder's
	// stride layout, so BlockFast can locate the module with a shift.
	blockIdx []int32
}

// Size returns the module's code footprint in bytes.
func (m *Module) Size() uint64 { return m.size }

// End returns the address one past the module's last code byte.
func (m *Module) End() uint64 { return m.Base + m.size }

// Contains reports whether addr lies inside the module.
func (m *Module) Contains(addr uint64) bool { return addr >= m.Base && addr < m.End() }

// Image is a complete guest program.
type Image struct {
	Modules []*Module
	Entry   uint64 // address of the first instruction to execute

	blocks map[uint64]*Block

	// list is the dense block index built by Build: list[b.Index] == b for
	// every block, sorted by address.
	list []*Block
}

// denseModuleLimit bounds the per-module block-lookup tables (one int32 per
// code byte). Modules above it fall back to the map path; at the scales the
// experiments run, essentially every module is below it.
const denseModuleLimit = 8 << 20

// Block returns the basic block starting at addr.
func (img *Image) Block(addr uint64) (*Block, bool) {
	b, ok := img.blocks[addr]
	return b, ok
}

// BlockFast returns the block starting at addr, or nil. It is the dispatch
// hot path's lookup: for images laid out by the Builder it resolves the
// module with a shift and the block with one dense-table load, touching no
// maps. Addresses outside any dense table fall back to the map, so it agrees
// with Block on every input.
func (img *Image) BlockFast(addr uint64) *Block {
	mi := int(addr>>moduleStrideShift) - 1
	if mi >= 0 && mi < len(img.Modules) {
		if t := img.Modules[mi].blockIdx; t != nil {
			off := addr - img.Modules[mi].Base
			if off < uint64(len(t)) {
				if i := t[off]; i >= 0 {
					return img.list[i]
				}
			}
			return nil
		}
	}
	return img.blocks[addr]
}

// BlockByIndex returns the block with the given dense index.
func (img *Image) BlockByIndex(i int32) *Block {
	if i < 0 || int(i) >= len(img.list) {
		return nil
	}
	return img.list[i]
}

// buildIndex assigns every block its dense Index (in address order) and
// builds the per-module O(1) lookup tables BlockFast uses. Build calls it
// once the block list is final; the list arrives in layout order, which is
// address order under the builder's layout, so it is sorted only if a check
// finds it out of order.
func (img *Image) buildIndex() {
	byAddr := func(i, j int) bool { return img.list[i].Addr < img.list[j].Addr }
	if !sort.SliceIsSorted(img.list, byAddr) {
		sort.Slice(img.list, byAddr)
	}
	for i, b := range img.list {
		b.Index = int32(i)
	}
	for i, m := range img.Modules {
		// The shift in BlockFast is only valid under the builder's stride
		// layout; any module breaking it keeps a nil table (map fallback).
		if m.Base != uint64(i+1)<<moduleStrideShift || m.size == 0 || m.size > denseModuleLimit {
			m.blockIdx = nil
			continue
		}
		t := make([]int32, m.size)
		for j := range t {
			t[j] = -1
		}
		m.blockIdx = t
	}
	for _, b := range img.list {
		if m := img.Module(b.Module); m != nil && m.blockIdx != nil && b.Addr >= m.Base && b.Addr-m.Base < uint64(len(m.blockIdx)) {
			m.blockIdx[b.Addr-m.Base] = b.Index
		}
	}
}

// MustBlock returns the block at addr or panics; for tests and internal use.
func (img *Image) MustBlock(addr uint64) *Block {
	b, ok := img.blocks[addr]
	if !ok {
		panic(fmt.Sprintf("program: no block at %#x", addr))
	}
	return b
}

// Module returns the module with the given ID, or nil.
func (img *Image) Module(id ModuleID) *Module {
	if int(id) >= len(img.Modules) {
		return nil
	}
	return img.Modules[id]
}

// ModuleOf returns the module containing addr.
func (img *Image) ModuleOf(addr uint64) (*Module, bool) {
	// Modules are sorted by base address.
	i := sort.Search(len(img.Modules), func(i int) bool {
		return img.Modules[i].End() > addr
	})
	if i < len(img.Modules) && img.Modules[i].Contains(addr) {
		return img.Modules[i], true
	}
	return nil, false
}

// NumBlocks returns the number of basic blocks in the image.
func (img *Image) NumBlocks() int { return len(img.blocks) }

// Footprint returns the total static code bytes across all modules.
func (img *Image) Footprint() uint64 {
	var n uint64
	for _, m := range img.Modules {
		n += m.Size()
	}
	return n
}

// FindFunction returns the first function with the given name.
func (img *Image) FindFunction(name string) (*Function, bool) {
	for _, m := range img.Modules {
		for _, f := range m.Functions {
			if f.Name == name {
				return f, true
			}
		}
	}
	return nil, false
}

// Validate checks the structural invariants of the image: blocks do not
// overlap, every block terminator is a real terminator, every direct branch
// target is a block address inside the image, and fall-through addresses of
// conditional branches are block starts. It walks the address-sorted block
// list, so overlaps are checked between neighbours.
func (img *Image) Validate() error {
	if len(img.list) != len(img.blocks) {
		return fmt.Errorf("program: %d blocks listed, %d indexed", len(img.list), len(img.blocks))
	}
	for i, b := range img.list {
		addr := b.Addr
		if img.blocks[addr] != b {
			return fmt.Errorf("program: block at %#x is not indexed at its address", addr)
		}
		if len(b.Code) == 0 {
			return fmt.Errorf("program: empty block at %#x", addr)
		}
		last := b.Last()
		if !last.EndsBlock() {
			return fmt.Errorf("program: block at %#x ends with non-terminator %s", addr, last)
		}
		for j, in := range b.Code[:len(b.Code)-1] {
			if in.EndsBlock() {
				return fmt.Errorf("program: block at %#x has terminator %s at position %d", addr, in, j)
			}
		}
		if last.IsDirect() {
			if _, ok := img.blocks[last.Target]; !ok {
				return fmt.Errorf("program: block at %#x branches to %#x which is not a block", addr, last.Target)
			}
		}
		if last.IsConditional() || last.IsCall() || last.Op == isa.OpSyscall {
			ft := b.FallThrough()
			if _, ok := img.blocks[ft]; !ok {
				return fmt.Errorf("program: block at %#x falls through to %#x which is not a block", addr, ft)
			}
		}
		if i > 0 && addr < img.list[i-1].End() {
			return fmt.Errorf("program: blocks overlap at %#x", addr)
		}
	}
	if _, ok := img.blocks[img.Entry]; !ok && len(img.blocks) > 0 {
		return fmt.Errorf("program: entry %#x is not a block", img.Entry)
	}
	return nil
}
