package dbt

import (
	"repro/internal/program"
	"repro/internal/vm"
)

// VMGuest adapts the reference interpreter to the Guest interface, letting
// the engine dynamically optimize a real interpreted program. Virtual time
// is the machine's retired-instruction count (one instruction = one
// microsecond of virtual time).
type VMGuest struct {
	M *vm.Machine
}

// Image implements Guest.
func (g VMGuest) Image() *program.Image { return g.M.Image() }

// Next implements Guest.
func (g VMGuest) Next(st *Step) error {
	if g.M.Halted() {
		*st = Step{Done: true, Time: g.M.InstCount}
		return nil
	}
	info, err := g.M.Step()
	if err != nil {
		return err
	}
	*st = Step{
		Block:    info.Block,
		Time:     g.M.InstCount,
		Loaded:   info.Loaded,
		Unloaded: info.Unloaded,
	}
	return nil
}
