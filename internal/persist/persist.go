// Package persist implements cross-run code-cache persistence: serializing
// the long-lived contents of the persistent cache at process exit and
// pre-populating a fresh cache from that image at the next startup.
//
// The paper closes by observing that long-lived traces dominate cache value;
// the natural follow-on (pursued by the same research line in later work on
// persistent and process-shared code caches) is to keep those traces across
// runs and skip their regeneration cost entirely. This package provides the
// mechanism and the experiment hook: save a generational manager's
// persistent cache, then warm a new manager from the file and measure how
// many trace generations the second run avoids.
//
// The on-disk format is a small versioned binary file: a magic header, the
// benchmark name, the tier-graph spec, the module table naming the code the
// records' module IDs refer to, then one record per trace (ID, head
// address, size, module, and the member-block addresses). Trace *bodies*
// are rebuilt from the program image on reuse — exactly what a DBT must do
// anyway when it revalidates a persisted trace against the current address
// space — so the file stays compact and stale records are rejected by
// Rebuild.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/trace"
)

// The format is version 4, the only one this build reads. Alongside the
// trace records it carries the tier-graph specification the snapshot was
// taken under — including each tier's local-policy spec, with "auto:NAME"
// recording the policy the online selector had live at snapshot time — so a
// warm start rebuilds the same cache geometry and resumes the selected
// policy without out-of-band configuration. It also carries the module
// table: which benchmark and log-local module each record's module ID
// names, so an image is meaningful to a reader with a different module
// namespace (a restarted service, a cluster peer) without any file beside
// it. Earlier generations (version 1, traces only; version 2, a spec without
// policies; version 3, no module table) fail with ErrVersion like any
// other.
const (
	magicV4 = "CCPERSIST4\n"

	// magicPrefix is common to every format generation; a file carrying it
	// under an unknown version digit is a snapshot from a different build,
	// not corruption.
	magicPrefix = "CCPERSIST"

	// maxModules bounds the module table: module IDs are 16-bit, so no
	// honest table is larger.
	maxModules = 1 << 16
	// maxModuleName bounds a module entry's benchmark name.
	maxModuleName = 255
)

// ErrVersion marks a snapshot written in a format generation this build does
// not speak. Callers distinguish it from corruption with errors.Is: a stale
// snapshot is an expected condition a long-running service skips (cold
// start) and logs, while a corrupt file of the right version is a real
// failure that should stop startup.
var ErrVersion = errors.New("unsupported snapshot version")

// Record describes one persisted trace.
type Record struct {
	ID       uint64
	HeadAddr uint64
	Size     uint32
	Module   uint16
	// Blocks are the member-block addresses in execution order; Rebuild
	// reconstructs the superblock from them.
	Blocks []uint64
}

// Module names the code behind one module ID: the benchmark and the
// module's number within that benchmark's event log.
type Module struct {
	ID    uint16 // the ID records carry in Record.Module
	Bench string
	Local uint16
}

// Image is a saved persistent-cache snapshot.
type Image struct {
	Benchmark string
	Records   []Record

	// Spec is the tier-graph geometry the snapshot was taken under, each
	// tier's Policy the one live at snapshot time; nil for shared-tier
	// snapshots. Only TotalCapacity and Tiers are saved.
	Spec *core.GraphSpec

	// Modules is the module table: what each record's Module ID names. It
	// is empty for single-process snapshots, whose module IDs are the
	// program's own; a shared tier serving many benchmarks needs it.
	Modules []Module
}

// Snapshot captures the current contents of a generational manager's
// persistent cache (the traces that earned promotion). lookup resolves a
// trace ID to its materialized trace (the engine's TraceByID); traces the
// engine no longer knows are skipped.
func Snapshot(benchmark string, g *core.Graph, lookup func(uint64) (*trace.Trace, bool)) Image {
	spec := g.Spec()
	// The tiers are cloned: the live policies below must not be written into
	// the graph's own spec.
	img := Image{Benchmark: benchmark, Spec: &core.GraphSpec{TotalCapacity: spec.TotalCapacity, Tiers: slices.Clone(spec.Tiers)}}
	// Record the live per-tier policies: a tier under online selection
	// persists "auto:NAME" so the warm restart resumes the selected policy
	// instead of restarting the race from scratch.
	for i, p := range g.PersistPolicies() {
		if i < len(img.Spec.Tiers) {
			img.Spec.Tiers[i].Policy = p
		}
	}
	for _, f := range g.PersistentFragments() {
		rec := recordOf(f)
		if lookup != nil {
			t, ok := lookup(f.ID)
			if !ok {
				continue
			}
			rec.Blocks = append(rec.Blocks, t.BlockAddrs...)
		}
		img.Records = append(img.Records, rec)
	}
	return img
}

// SnapshotShared captures the contents of a multi-process shared persistent
// tier. Its records carry no member blocks: a shared tier is restored by
// identity (module and head), not rebuilt from bodies. The caller fills in
// the module table for the namespace the tier's module IDs live in.
func SnapshotShared(benchmark string, sp *core.SharedPersistent) Image {
	img := Image{Benchmark: benchmark}
	for _, f := range sp.Fragments() {
		img.Records = append(img.Records, recordOf(f))
	}
	return img
}

func recordOf(f codecache.Fragment) Record {
	return Record{ID: f.ID, HeadAddr: f.HeadAddr, Size: uint32(f.Size), Module: f.Module}
}

// FilterImage narrows an image to the records keep accepts, preserving
// order, and its module table to the entries those records use. The
// cluster's shard-transfer endpoint reuses the snapshot format for shard
// bootstrap: it snapshots the shared tier, filters to the requested shards,
// and streams the result through Save.
func FilterImage(img Image, keep func(Record) bool) Image {
	out := Image{Benchmark: img.Benchmark, Spec: img.Spec}
	used := make(map[uint16]bool)
	for _, r := range img.Records {
		if keep(r) {
			out.Records = append(out.Records, r)
			used[r.Module] = true
		}
	}
	for _, m := range img.Modules {
		if used[m.ID] {
			out.Modules = append(out.Modules, m)
		}
	}
	return out
}

// Save writes the image in the version-4 format.
func Save(w io.Writer, img Image) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV4); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(img.Benchmark))); err != nil {
		return err
	}
	if _, err := bw.WriteString(img.Benchmark); err != nil {
		return err
	}
	// The spec block: a tier count (0 = no spec recorded), then the total
	// capacity and one (fraction bits, threshold, promote-on-access, policy
	// string) record per tier. Fractions travel as IEEE-754 bit patterns so
	// geometry round-trips exactly; the policy string is length-prefixed
	// (version 3 adds it to the version-2 triple).
	if img.Spec == nil {
		if err := put(0); err != nil {
			return err
		}
	} else {
		if err := put(uint64(len(img.Spec.Tiers))); err != nil {
			return err
		}
		if err := put(img.Spec.TotalCapacity); err != nil {
			return err
		}
		for _, t := range img.Spec.Tiers {
			promote := uint64(0)
			if t.PromoteOnAccess {
				promote = 1
			}
			for _, v := range []uint64{math.Float64bits(t.Frac), t.Threshold, promote} {
				if err := put(v); err != nil {
					return err
				}
			}
			if err := put(uint64(len(t.Policy))); err != nil {
				return err
			}
			if _, err := bw.WriteString(t.Policy); err != nil {
				return err
			}
		}
	}
	// The module table: a count, then one (ID, local module, benchmark
	// name) entry each.
	if err := put(uint64(len(img.Modules))); err != nil {
		return err
	}
	for _, m := range img.Modules {
		for _, v := range []uint64{uint64(m.ID), uint64(m.Local), uint64(len(m.Bench))} {
			if err := put(v); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(m.Bench); err != nil {
			return err
		}
	}
	if err := put(uint64(len(img.Records))); err != nil {
		return err
	}
	for _, r := range img.Records {
		for _, v := range []uint64{r.ID, r.HeadAddr, uint64(r.Size), uint64(r.Module), uint64(len(r.Blocks))} {
			if err := put(v); err != nil {
				return err
			}
		}
		for _, a := range r.Blocks {
			if err := put(a); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads an image in the version-4 format. Its input may come off the
// peer network (cluster bootstrap), so every count is bounded before it
// sizes anything.
func Load(r io.Reader) (Image, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magicV4))
	if _, err := io.ReadFull(br, got); err != nil {
		return Image{}, fmt.Errorf("persist: reading magic: %w", err)
	}
	if string(got) != magicV4 {
		if strings.HasPrefix(string(got), magicPrefix) {
			return Image{}, fmt.Errorf("persist: snapshot format %q: %w", got, ErrVersion)
		}
		return Image{}, fmt.Errorf("persist: bad magic %q", got)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	nameLen, err := get()
	if err != nil {
		return Image{}, err
	}
	if nameLen > 1<<16 {
		return Image{}, errors.New("persist: unreasonable name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return Image{}, err
	}
	var spec *core.GraphSpec
	tiers, err := get()
	if err != nil {
		return Image{}, err
	}
	if tiers > 1<<10 {
		return Image{}, errors.New("persist: unreasonable tier count")
	}
	if tiers > 0 {
		spec = &core.GraphSpec{}
		if spec.TotalCapacity, err = get(); err != nil {
			return Image{}, err
		}
		for i := uint64(0); i < tiers; i++ {
			var vals [4]uint64
			for j := range vals {
				if vals[j], err = get(); err != nil {
					return Image{}, fmt.Errorf("persist: spec tier %d: %w", i, err)
				}
			}
			if vals[3] > 1<<10 {
				return Image{}, errors.New("persist: unreasonable policy length")
			}
			pol := make([]byte, vals[3])
			if _, err := io.ReadFull(br, pol); err != nil {
				return Image{}, fmt.Errorf("persist: spec tier %d policy: %w", i, err)
			}
			spec.Tiers = append(spec.Tiers, core.TierSpec{
				Frac:            math.Float64frombits(vals[0]),
				Threshold:       vals[1],
				PromoteOnAccess: vals[2] != 0,
				Policy:          string(pol),
			})
		}
	}
	mods, err := loadModules(br)
	if err != nil {
		return Image{}, err
	}
	n, err := get()
	if err != nil {
		return Image{}, err
	}
	if n > 1<<24 {
		return Image{}, errors.New("persist: unreasonable record count")
	}
	// The count is only a claim until the records arrive: preallocate for
	// at most a modest prefix, so a short forged image cannot demand memory.
	img := Image{Benchmark: string(name), Records: make([]Record, 0, min(n, 1<<10)), Spec: spec, Modules: mods}
	for i := uint64(0); i < n; i++ {
		var vals [5]uint64
		for j := range vals {
			v, err := get()
			if err != nil {
				return Image{}, fmt.Errorf("persist: record %d: %w", i, err)
			}
			vals[j] = v
		}
		if vals[4] > 1<<16 {
			return Image{}, errors.New("persist: unreasonable block count")
		}
		rec := Record{
			ID:       vals[0],
			HeadAddr: vals[1],
			Size:     uint32(vals[2]),
			Module:   uint16(vals[3]),
		}
		for j := uint64(0); j < vals[4]; j++ {
			a, err := get()
			if err != nil {
				return Image{}, fmt.Errorf("persist: record %d block %d: %w", i, j, err)
			}
			rec.Blocks = append(rec.Blocks, a)
		}
		img.Records = append(img.Records, rec)
	}
	return img, nil
}

// loadModules reads the module table, rejecting an oversized table, an
// oversized name, an out-of-range ID, or an ID named twice before any of
// them sizes an allocation.
func loadModules(br *bufio.Reader) ([]Module, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("persist: module count: %w", err)
	}
	if n > maxModules {
		return nil, errors.New("persist: unreasonable module count")
	}
	var mods []Module
	seen := make(map[uint16]bool)
	for i := uint64(0); i < n; i++ {
		var vals [3]uint64
		for j := range vals {
			if vals[j], err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("persist: module %d: %w", i, err)
			}
		}
		if vals[0] > 0xFFFF || vals[1] > 0xFFFF {
			return nil, fmt.Errorf("persist: module %d: ID out of range", i)
		}
		if vals[2] > maxModuleName {
			return nil, errors.New("persist: unreasonable module name length")
		}
		id := uint16(vals[0])
		if seen[id] {
			return nil, fmt.Errorf("persist: module %d named twice", id)
		}
		seen[id] = true
		bench := make([]byte, vals[2])
		if _, err := io.ReadFull(br, bench); err != nil {
			return nil, fmt.Errorf("persist: module %d name: %w", i, err)
		}
		mods = append(mods, Module{ID: id, Bench: string(bench), Local: uint16(vals[1])})
	}
	return mods, nil
}

// Rebuild reconstructs real superblocks from a snapshot against the current
// program image, rejecting stale records (missing blocks, changed layout,
// or a rebuilt size that disagrees with the snapshot). The returned traces
// keep their persisted IDs.
func Rebuild(img Image, prog *program.Image) (ok []*trace.Trace, rejected int) {
	for _, r := range img.Records {
		if len(r.Blocks) == 0 {
			rejected++
			continue
		}
		blocks := make([]*program.Block, 0, len(r.Blocks))
		valid := true
		for _, a := range r.Blocks {
			b, found := prog.Block(a)
			if !found {
				valid = false
				break
			}
			blocks = append(blocks, b)
		}
		if !valid || blocks[0].Addr != r.HeadAddr {
			rejected++
			continue
		}
		t, err := trace.Build(r.ID, blocks)
		if err != nil || uint32(t.Size()) != r.Size {
			rejected++
			continue
		}
		ok = append(ok, t)
	}
	return ok, rejected
}
