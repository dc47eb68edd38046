package program

import (
	"fmt"

	"repro/internal/isa"
)

// moduleStride is the address-space spacing between module bases. Modules
// are given widely separated bases so address ranges never collide, so
// ModuleOf lookups behave like a real loader's VM map, and so BlockFast can
// recover the module of an address with a single shift.
const (
	moduleStrideShift = 28
	moduleStride      = 1 << moduleStrideShift
)

// Builder assembles an Image in two phases: callers describe modules,
// functions, blocks, and symbolic control flow; Build lays everything out in
// the address space and resolves labels and function references.
type Builder struct {
	modules []*moduleBuilder
	entry   *FuncSym
	err     error
}

// NewBuilder returns an empty image builder.
func NewBuilder() *Builder { return &Builder{} }

// FuncSym is a symbolic reference to a function that may not have an
// address yet. After Build it carries the resolved entry address.
type FuncSym struct {
	name  string
	fb    *funcBuilder
	entry uint64
}

// Name returns the symbol's function name.
func (s *FuncSym) Name() string { return s.name }

// Entry returns the resolved entry address; valid only after Build.
func (s *FuncSym) Entry() uint64 {
	if s.entry == 0 && s.fb != nil && len(s.fb.blocks) > 0 {
		s.entry = s.fb.blocks[0].addr
	}
	return s.entry
}

// Label names a block within one function.
type Label int

type moduleBuilder struct {
	name       string
	unloadable bool
	funcs      []*funcBuilder
}

// ModuleBuilder describes one module under construction.
type ModuleBuilder struct {
	b  *Builder
	mb *moduleBuilder
}

// Module starts a new module. Unloadable modules can be mapped and unmapped
// at run time, like DLLs.
func (b *Builder) Module(name string, unloadable bool) *ModuleBuilder {
	mb := &moduleBuilder{name: name, unloadable: unloadable}
	b.modules = append(b.modules, mb)
	return &ModuleBuilder{b: b, mb: mb}
}

// SetEntry selects the program's entry function.
func (b *Builder) SetEntry(f *FuncSym) { b.entry = f }

type protoInst struct {
	inst  isa.Inst
	label Label    // branch target within the function, when >= 0
	fn    *FuncSym // call target, when non-nil
}

type protoBlock struct {
	id     Label
	insts  []protoInst
	addr   uint64
	placed bool
}

type funcBuilder struct {
	name   string
	labels []*protoBlock // indexed by Label; reserved by NewBlock
	blocks []*protoBlock // layout order; appended at first StartBlock
}

// FuncBuilder describes one function under construction.
type FuncBuilder struct {
	b   *Builder
	fb  *funcBuilder
	sym *FuncSym
	cur *protoBlock
}

// Function starts a new function in the module and returns its builder and
// symbol. The first block created becomes the function entry.
func (m *ModuleBuilder) Function(name string) (*FuncBuilder, *FuncSym) {
	fb := &funcBuilder{name: name}
	m.mb.funcs = append(m.mb.funcs, fb)
	sym := &FuncSym{name: name, fb: fb}
	return &FuncBuilder{b: m.b, fb: fb, sym: sym}, sym
}

// NewBlock reserves a label for a block that will be placed later. The block
// enters the function's layout when StartBlock is first called on it, so a
// label can be branched to before the code that follows the branch site is
// emitted (the usual pattern for loop exits and taken paths).
func (f *FuncBuilder) NewBlock() Label {
	l := Label(len(f.fb.labels))
	f.fb.labels = append(f.fb.labels, &protoBlock{id: l})
	return l
}

// StartBlock directs subsequent emissions into the block with label l,
// placing it at the current end of the function layout if it has not been
// placed yet.
func (f *FuncBuilder) StartBlock(l Label) {
	if int(l) >= len(f.fb.labels) {
		f.fail("StartBlock: unknown label %d in %s", l, f.fb.name)
		return
	}
	pb := f.fb.labels[l]
	if !pb.placed {
		pb.placed = true
		f.fb.blocks = append(f.fb.blocks, pb)
	}
	f.cur = pb
}

// Block creates a new block and starts emitting into it.
func (f *FuncBuilder) Block() Label {
	l := f.NewBlock()
	f.StartBlock(l)
	return l
}

func (f *FuncBuilder) fail(format string, args ...any) {
	if f.b.err == nil {
		f.b.err = fmt.Errorf("program: "+format, args...)
	}
}

func (f *FuncBuilder) emit(p protoInst) {
	if f.cur == nil {
		f.fail("emit into %s with no open block", f.fb.name)
		return
	}
	if n := len(f.cur.insts); n > 0 && f.cur.insts[n-1].inst.EndsBlock() {
		f.fail("emit into %s block %d after terminator", f.fb.name, f.cur.id)
		return
	}
	f.cur.insts = append(f.cur.insts, p)
}

// I emits a non-terminating instruction into the current block.
func (f *FuncBuilder) I(in isa.Inst) {
	if in.EndsBlock() {
		f.fail("I: %s is a terminator; use the dedicated emitter", in)
		return
	}
	f.emit(protoInst{inst: in, label: -1})
}

// Jmp terminates the current block with an unconditional branch to l.
func (f *FuncBuilder) Jmp(l Label) {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpJmp}, label: l})
}

// Jcc terminates the current block with a conditional branch to l; execution
// falls through to the next started block otherwise. The caller must start
// the fall-through block immediately after.
func (f *FuncBuilder) Jcc(c isa.Cond, l Label) {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpJcc, Cond: c}, label: l})
}

// Call terminates the current block with a direct call to fn.
func (f *FuncBuilder) Call(fn *FuncSym) {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpCall}, label: -1, fn: fn})
}

// CallInd terminates the current block with an indirect call through r.
func (f *FuncBuilder) CallInd(r isa.Reg) {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpCallInd, Rs1: r}, label: -1})
}

// Ret terminates the current block with a return.
func (f *FuncBuilder) Ret() {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpRet}, label: -1})
}

// Halt terminates the current block by stopping the machine.
func (f *FuncBuilder) Halt() {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpHalt}, label: -1})
}

// Syscall terminates the current block with a system call.
func (f *FuncBuilder) Syscall(num int64) {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpSyscall, Imm: num}, label: -1})
}

// JmpInd terminates the current block with an indirect branch through r.
func (f *FuncBuilder) JmpInd(r isa.Reg) {
	f.emit(protoInst{inst: isa.Inst{Op: isa.OpJmpInd, Rs1: r}, label: -1})
}

// Build lays out all modules, resolves labels and call targets, and returns
// the finished image.
func (b *Builder) Build() (*Image, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Phase 1: assign addresses. Block sizes depend only on opcodes, so a
	// single forward pass suffices.
	img := &Image{}
	nblocks := 0
	for mi, mb := range b.modules {
		base := uint64(mi+1) * moduleStride
		mod := &Module{
			ID:         ModuleID(mi),
			Name:       mb.name,
			Base:       base,
			Unloadable: mb.unloadable,
		}
		cursor := base
		for _, fb := range mb.funcs {
			if len(fb.blocks) == 0 {
				return nil, fmt.Errorf("program: function %s has no blocks", fb.name)
			}
			for _, pb := range fb.blocks {
				if len(pb.insts) == 0 {
					return nil, fmt.Errorf("program: function %s block %d is empty", fb.name, pb.id)
				}
				if !pb.insts[len(pb.insts)-1].inst.EndsBlock() {
					return nil, fmt.Errorf("program: function %s block %d lacks a terminator", fb.name, pb.id)
				}
				pb.addr = cursor
				for _, p := range pb.insts {
					cursor += uint64(p.inst.Size())
				}
			}
			nblocks += len(fb.blocks)
		}
		mod.size = cursor - base
		img.Modules = append(img.Modules, mod)
	}

	// Phase 2: materialize blocks with resolved targets, appending them to
	// the dense list in layout order, which is address order.
	img.blocks = make(map[uint64]*Block, nblocks)
	img.list = make([]*Block, 0, nblocks)
	for mi, mb := range b.modules {
		mod := img.Modules[mi]
		mod.Functions = make([]*Function, 0, len(mb.funcs))
		for _, fb := range mb.funcs {
			fn := &Function{Name: fb.name, Module: mod.ID, Entry: fb.blocks[0].addr, Blocks: make([]*Block, 0, len(fb.blocks))}
			for _, pb := range fb.blocks {
				blk := &Block{Addr: pb.addr, Module: mod.ID, Code: make([]isa.Inst, 0, len(pb.insts))}
				for _, p := range pb.insts {
					in := p.inst
					if p.label >= 0 {
						if int(p.label) >= len(fb.labels) {
							return nil, fmt.Errorf("program: function %s references unknown label %d", fb.name, p.label)
						}
						target := fb.labels[p.label]
						if !target.placed {
							return nil, fmt.Errorf("program: function %s branches to label %d which was never started", fb.name, p.label)
						}
						in.Target = target.addr
					}
					if p.fn != nil {
						if p.fn.fb == nil || len(p.fn.fb.blocks) == 0 {
							return nil, fmt.Errorf("program: call to unresolved function %s", p.fn.name)
						}
						in.Target = p.fn.fb.blocks[0].addr
					}
					blk.Code = append(blk.Code, in)
				}
				if _, dup := img.blocks[blk.Addr]; dup {
					return nil, fmt.Errorf("program: duplicate block address %#x", blk.Addr)
				}
				img.blocks[blk.Addr] = blk
				img.list = append(img.list, blk)
				fn.Blocks = append(fn.Blocks, blk)
			}
			mod.Functions = append(mod.Functions, fn)
		}
	}

	if b.entry != nil {
		if b.entry.fb == nil || len(b.entry.fb.blocks) == 0 {
			return nil, fmt.Errorf("program: entry function %s was never built", b.entry.name)
		}
		b.entry.entry = b.entry.fb.blocks[0].addr
		img.Entry = b.entry.entry
	} else if len(img.Modules) > 0 && len(img.Modules[0].Functions) > 0 {
		img.Entry = img.Modules[0].Functions[0].Entry
	}

	img.buildIndex()
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// ResolveEntry returns the entry address of a symbol after Build. It is a
// convenience for callers holding FuncSyms from before layout.
func ResolveEntry(s *FuncSym) (uint64, error) {
	if s == nil || s.fb == nil || len(s.fb.blocks) == 0 {
		return 0, fmt.Errorf("program: unresolved function symbol")
	}
	if s.fb.blocks[0].addr == 0 {
		return 0, fmt.Errorf("program: function %s not yet laid out", s.name)
	}
	return s.fb.blocks[0].addr, nil
}
