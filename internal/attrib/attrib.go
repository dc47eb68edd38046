// Package attrib is the trace-lifecycle attribution ledger: a deterministic
// consumer of a manager's event stream that runs a per-trace state machine
// (compiled → resident@tier → evicted/unmapped → regenerated → ...) and
// classifies every miss into an explicit cause taxonomy (obs.Reason):
//
//	cold                first compile — the trace had never been seen
//	capacity            evicted under capacity pressure, later re-heated
//	unmap-forced        deleted by a module unmap (or a capacity death
//	                    superseded by one)
//	premature-demotion  died out of a middle generation and re-heated
//	                    within the re-heat window — the threshold deleted
//	                    a trace that was still hot
//	never-promoted      died out of the first generation without ever
//	                    crossing the promotion threshold
//	adoption-miss       the shared tier had no publisher for an identity
//	                    this process had previously seen shared
//
// Cause counts aggregate per module × tier × epoch × proc under a hard
// conservation invariant: the non-cold causes sum exactly to the total
// number of regenerations the ledger classified. The ledger is driven
// synchronously by the manager that owns it (events via Note, misses via
// Miss), keyed to the manager's access counter — never wall time — so every
// report is byte-reproducible across runs and parallelism.
//
// The adaptive split controller (internal/core) runs the same state machine
// in Light mode, replacing its old private diedFrom map: Light skips all
// aggregation and answers only "was this miss preceded by a chargeable
// capacity death, and out of which tier?" — with module-unmap supersession
// making the old death/unmap double-attribution unrepresentable.
package attrib

import (
	"repro/internal/idtab"
	"repro/internal/obs"
)

// DefaultEpoch is the attribution epoch length in accesses: the granularity
// of per-epoch cells and the unit of the premature-demotion re-heat window.
const DefaultEpoch = 4096

// Config parameterizes a Ledger.
type Config struct {
	// Epoch is the attribution epoch length in accesses (default 4096).
	Epoch uint64
	// ReheatEpochs is the premature-demotion window K: a middle-generation
	// death counts as premature when the trace re-heats within K epochs of
	// dying (default 1).
	ReheatEpochs uint64
	// EmitEvents makes the owning manager publish a KindRegenerate event
	// with the attributed cause for every classified miss. Off by default so
	// stock event streams are unchanged.
	EmitEvents bool
	// Light runs only the per-trace state machine — no cells, no totals, no
	// last-miss memory. The adaptive controller uses it for donor/receiver
	// signals without paying for aggregation.
	Light bool
}

func (c Config) withDefaults() Config {
	if c.Epoch == 0 {
		c.Epoch = DefaultEpoch
	}
	if c.ReheatEpochs == 0 {
		c.ReheatEpochs = 1
	}
	return c
}

// Per-trace lifecycle states.
const (
	// stateCompiled: the trace identity is known but not resident (fresh
	// registration, or its death has been consumed by a miss).
	stateCompiled uint8 = iota
	// stateResident: inserted into some tier and not seen dying since.
	stateResident
	// stateDead: died (evict or unmap) and the death is still unclaimed.
	stateDead
)

// rec is one trace's lifecycle record. Records are never removed — a miss
// consumes the death but keeps the identity, which is exactly what makes
// "re-insert after unmap" attributable (and the old diedFrom leak
// unrepresentable: supersession is checked against the module's unmap
// generation, not against record presence).
type rec struct {
	module       uint16
	state        uint8
	deadByUnmap  bool
	everPromoted bool
	known        bool // the identity has a record; a zero rec is no record
	deathLevel   int16
	unmapStamp   uint32
	size         uint32
	deathClock   uint64
}

// MissInfo is the classification of one miss, returned synchronously to the
// manager that reported it.
type MissInfo struct {
	// Cause is the attributed cause (never ReasonNone or ReasonCold: a miss
	// is by definition a re-heat of a known identity or a capacity-dropped
	// unknown).
	Cause obs.Reason
	// Level is the tier the trace last died out of, or obs.LevelNone when no
	// death is on record.
	Level obs.Level
	// Charge reports whether the miss is chargeable to a capacity eviction
	// (a KindEvict death not superseded by a module unmap) — the adaptive
	// controller's donor signal. Unmap-forced and cold misses are never
	// chargeable.
	Charge bool
	// Module and Size describe the trace, where known.
	Module uint16
	Size   uint64
}

// Ledger is the attribution state machine and aggregator for one manager.
// It is driven from the single goroutine that owns the manager and holds no
// locks; merge Snapshots into an Aggregate to combine managers.
type Ledger struct {
	cfg       Config
	reheatWin uint64
	first     obs.Level
	final     obs.Level
	shared    bool
	proc      int32

	clock uint64

	recs idtab.Table[rec]

	// unmapGen counts module unmaps; death records stamp their module's
	// generation so a later unmap supersedes an unclaimed capacity death.
	unmapGen []uint32

	cells  map[Key]uint64
	totals [obs.NumReasons]uint64
	regens uint64

	deaths       []uint64 // capacity deaths by tier level
	middleDeaths uint64   // deaths out of middle generations

	lastID    uint64
	lastKey   Key
	lastValid bool
}

// Key addresses one aggregation cell: module × tier × epoch × proc × cause.
type Key struct {
	Module uint16
	Level  int16 // obs.Level; obs.LevelNone for cold / unknown
	Epoch  uint32
	Proc   int32
	Cause  obs.Reason
}

// New creates a ledger. The zero Config is usable: 4096-access epochs, a
// one-epoch re-heat window, no event emission.
func New(cfg Config) *Ledger {
	cfg = cfg.withDefaults()
	l := &Ledger{
		cfg:       cfg,
		reheatWin: cfg.ReheatEpochs * cfg.Epoch,
		first:     obs.LevelUnified,
		final:     obs.LevelUnified,
	}
	if !cfg.Light {
		l.cells = make(map[Key]uint64)
	}
	return l
}

// SetShape tells the ledger the owning manager's tier geometry: the first
// and final tier levels (equal for unified managers) and whether the final
// tier is a shared back-end whose evictions this ledger cannot observe.
func (l *Ledger) SetShape(first, final obs.Level, shared bool) {
	l.first, l.final, l.shared = first, final, shared
}

// SetProc sets the proc recorded in this ledger's cells.
func (l *Ledger) SetProc(proc int) { l.proc = int32(proc) }

// Tick advances the ledger clock by n accesses. The owning manager calls it
// once per access (or once per drained batch), so epochs and re-heat windows
// are functions of the access stream alone.
func (l *Ledger) Tick(n uint64) { l.clock += n }

// Clock returns the accesses observed so far.
func (l *Ledger) Clock() uint64 { return l.clock }

// EmitEvents reports whether the owning manager should publish
// KindRegenerate events for classified misses.
func (l *Ledger) EmitEvents() bool { return l.cfg.EmitEvents && !l.cfg.Light }

// Light reports whether the ledger runs in state-machine-only mode.
func (l *Ledger) Light() bool { return l.cfg.Light }

func (l *Ledger) epoch() uint32 { return uint32(l.clock / l.cfg.Epoch) }

func (l *Ledger) gen(module uint16) uint32 {
	if int(module) < len(l.unmapGen) {
		return l.unmapGen[module]
	}
	return 0
}

// ref returns the record for id, or nil if the identity is unknown.
func (l *Ledger) ref(id uint64) *rec {
	if r := l.recs.At(id); r != nil && r.known {
		return r
	}
	return nil
}

// ensure returns the record for id, creating it when the identity is new;
// fresh reports creation. Steady-state ensure on a known identity allocates
// nothing.
func (l *Ledger) ensure(id uint64) (r *rec, fresh bool) {
	r = l.recs.Ref(id)
	if r.known {
		return r, false
	}
	*r = rec{known: true, deathLevel: int16(obs.LevelNone)}
	return r, true
}

// Register records a trace identity ahead of (or instead of) its first
// insert: module and size become attributable even when the insert itself is
// dropped under capacity pressure. cold marks a first compile; a fresh cold
// registration counts one cold cell. Replay drivers call it on trace
// creation; managers fall back to counting cold at first insert when nothing
// registers identities.
func (l *Ledger) Register(id uint64, module uint16, size uint64, cold bool) {
	r, fresh := l.ensure(id)
	r.module = module
	r.size = sat32(size)
	if cold && fresh {
		l.countCold(module)
	}
}

// Note consumes one event of the owning manager's stream. The manager hands
// each event to its ledger before its observer sees it; Note runs on the
// manager's goroutine and allocates nothing at steady state.
func (l *Ledger) Note(e *obs.Event) {
	switch e.Kind {
	case obs.KindInsert:
		r, _ := l.ensure(e.Trace)
		if e.Module != 0 || r.module == 0 {
			r.module = e.Module
		}
		if e.Size != 0 {
			r.size = sat32(e.Size)
		}
		if r.state != stateResident {
			r.state = stateResident
			r.everPromoted = false
			r.deadByUnmap = false
		}
	case obs.KindEvict:
		r, _ := l.ensure(e.Trace)
		if e.Module != 0 {
			r.module = e.Module
		}
		if e.Size != 0 {
			r.size = sat32(e.Size)
		}
		r.state = stateDead
		r.deadByUnmap = false
		r.deathLevel = int16(e.From)
		r.deathClock = l.clock
		r.unmapStamp = l.gen(r.module)
		l.noteDeath(e.From)
	case obs.KindPromote:
		if r := l.ref(e.Trace); r != nil {
			r.everPromoted = true
		}
	case obs.KindUnmap:
		r, _ := l.ensure(e.Trace)
		if e.Module != 0 {
			r.module = e.Module
		}
		r.state = stateDead
		r.deadByUnmap = true
		r.deathLevel = int16(e.From)
		r.deathClock = l.clock
		r.unmapStamp = l.gen(r.module)
	}
}

func (l *Ledger) noteDeath(lvl obs.Level) {
	if l.cfg.Light {
		return
	}
	if lvl >= 0 {
		for len(l.deaths) <= int(lvl) {
			l.deaths = append(l.deaths, 0)
		}
		l.deaths[lvl]++
	}
	if l.first != l.final && lvl != l.first && lvl != l.final {
		l.middleDeaths++
	}
}

// NoteModuleUnmap bumps the module's unmap generation: every unclaimed death
// record of that module is superseded from this point on, so a later re-heat
// of such a trace is unmap-forced, never a capacity charge. This is what
// makes the old controller's double-attribution (capacity death recorded,
// module unmapped, stale record still charged) unrepresentable.
func (l *Ledger) NoteModuleUnmap(module uint16) {
	for len(l.unmapGen) <= int(module) {
		l.unmapGen = append(l.unmapGen, 0)
	}
	l.unmapGen[module]++
}

// Miss classifies one miss on id and consumes any death on record, so a
// single death can never be charged twice. The manager calls it exactly once
// per full miss, which is what makes the conservation invariant structural:
// one miss, one cause cell.
func (l *Ledger) Miss(id uint64) MissInfo {
	r, fresh := l.ensure(id)
	mi := MissInfo{Cause: obs.ReasonCapacity, Level: obs.LevelNone}
	if !fresh {
		mi.Module, mi.Size = r.module, uint64(r.size)
		switch r.state {
		case stateDead:
			lvl := obs.Level(r.deathLevel)
			if r.deadByUnmap || r.unmapStamp != l.gen(r.module) {
				mi.Cause = obs.ReasonUnmapForced
				mi.Level = lvl
			} else {
				mi.Charge, mi.Level = true, lvl
				switch {
				case l.first != l.final && lvl == l.first && !r.everPromoted:
					mi.Cause = obs.ReasonNeverPromoted
				case lvl != l.first && lvl != l.final && l.clock-r.deathClock <= l.reheatWin:
					mi.Cause = obs.ReasonPrematureDemotion
				}
			}
		case stateResident:
			// The ledger thinks the trace is resident but the manager
			// missed: the final tier is a shared back-end whose evictions
			// bypass this process's stream. The shared tier lost an identity we
			// had published or adopted — an adoption miss.
			if l.shared {
				mi.Cause = obs.ReasonAdoptionMiss
			}
		}
		// Consume the death; the next life starts clean.
		r.state = stateCompiled
		r.deadByUnmap = false
		r.everPromoted = false
		r.deathLevel = int16(obs.LevelNone)
	}
	l.regens++
	if !l.cfg.Light {
		k := Key{Module: mi.Module, Level: int16(mi.Level), Epoch: l.epoch(), Proc: l.proc, Cause: mi.Cause}
		l.cells[k]++
		l.totals[mi.Cause]++
		l.lastID, l.lastKey, l.lastValid = id, k, true
	}
	return mi
}

// ReclassifyLastMiss moves the most recent miss on id to a different cause —
// the hook a serving layer uses to upgrade a local capacity verdict with
// knowledge the ledger cannot see (e.g. "the shared tier had no publisher").
// It is a cell-to-cell move, so conservation is untouched. Returns false
// when the last classified miss was not id's or the cause already matches.
func (l *Ledger) ReclassifyLastMiss(id uint64, cause obs.Reason) bool {
	if l.cfg.Light || !l.lastValid || l.lastID != id || l.lastKey.Cause == cause {
		return false
	}
	if l.cells[l.lastKey] <= 1 {
		delete(l.cells, l.lastKey)
	} else {
		l.cells[l.lastKey]--
	}
	l.totals[l.lastKey.Cause]--
	l.lastKey.Cause = cause
	l.cells[l.lastKey]++
	l.totals[cause]++
	return true
}

func (l *Ledger) countCold(module uint16) {
	if l.cfg.Light {
		return
	}
	k := Key{Module: module, Level: int16(obs.LevelNone), Epoch: l.epoch(), Proc: l.proc, Cause: obs.ReasonCold}
	l.cells[k]++
	l.totals[obs.ReasonCold]++
}

// Totals returns the per-cause counts (index by obs.Reason).
func (l *Ledger) Totals() [obs.NumReasons]uint64 { return l.totals }

// Regens returns the number of misses classified so far.
func (l *Ledger) Regens() uint64 { return l.regens }

func sat32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}
