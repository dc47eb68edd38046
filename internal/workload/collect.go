package workload

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/tracelog"
)

// Collect is the paper's collection pass (§6): it runs the bench once under
// an unbounded trace cache and writes the run's cache-event log to out,
// headed with the profile's name and duration. cfg carries the engine
// settings a caller adds (Lifetimes, Model, SlowDispatch); Collect supplies
// the manager and the log. It returns the run's statistics and how many log
// events it wrote.
func (b *Bench) Collect(out io.Writer, cfg dbt.Config) (dbt.RunStats, uint64, error) {
	w, err := tracelog.NewWriter(out, tracelog.Header{
		Benchmark:      b.Profile.Name,
		DurationMicros: b.Profile.DurationMicros(),
	})
	if err != nil {
		return dbt.RunStats{}, 0, err
	}
	cfg.Manager = core.NewUnified(1<<40, nil, nil)
	cfg.Log = w
	eng, err := dbt.New(b.Image, cfg)
	if err != nil {
		return dbt.RunStats{}, 0, err
	}
	if err := eng.Run(b.NewDriver(), 0); err != nil {
		return dbt.RunStats{}, 0, err
	}
	return eng.Stats(), w.Events(), nil
}

// SyntheticLog synthesizes the named benchmark at scale and returns its
// collection log: exactly what `tracegen -bench <name> -scale <scale>`
// writes to disk, but in memory, so tests and load generators need no
// fixture files.
func SyntheticLog(name string, scale float64) ([]byte, error) {
	p, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	b, err := Synthesize(p.Scaled(scale))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, _, err := b.Collect(&buf, dbt.Config{}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
