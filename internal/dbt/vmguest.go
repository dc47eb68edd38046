package dbt

import (
	"repro/internal/program"
	"repro/internal/vm"
)

// VMGuest adapts the reference interpreter to the Guest interface, letting
// the engine dynamically optimize a real interpreted program. Virtual time
// is the machine's retired-instruction count (one instruction = one
// microsecond of virtual time). Each run is one block: the interpreter
// decides control flow as it executes, so it cannot hand out a run ahead.
type VMGuest struct {
	M *vm.Machine

	// block and time back the one-block runs Next hands out.
	block, time [1]uint64
}

// Image implements Guest.
func (g *VMGuest) Image() *program.Image { return g.M.Image() }

// Next implements Guest.
func (g *VMGuest) Next(st *Step, max int) error {
	if g.M.Halted() {
		*st = Step{Done: true}
		return nil
	}
	info, err := g.M.Step()
	if err != nil {
		return err
	}
	g.block[0], g.time[0] = info.Block, g.M.InstCount
	*st = Step{
		Blocks:   g.block[:],
		Times:    g.time[:],
		Loaded:   info.Loaded,
		Unloaded: info.Unloaded,
	}
	return nil
}
