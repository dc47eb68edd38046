package server

import (
	"net/http"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/obs"
)

// discardResponse is a ResponseWriter that drops the body, so an
// allocation count measures the NDJSON writer, not the response.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestEventLinesDoNotAllocate is the events=1 cost gate: an event line
// written through a session's NDJSON writer, and an event through the whole
// session sink in events mode (cost charge, tally, NDJSON line), allocate
// nothing once the writer's line buffer has grown.
func TestEventLinesDoNotAllocate(t *testing.T) {
	srv, err := New(Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	nw := newNDJSONWriter(srv, &discardResponse{h: http.Header{}})
	sr := newSessionRun(srv)
	defer sr.close()
	sr.enc = nw
	sr.acc = costmodel.NewAccum(costmodel.DefaultModel)

	events := []obs.Event{
		{Kind: obs.KindInsert, Trace: 1 << 40, Size: 480, Module: 3, To: obs.LevelNursery, Proc: sr.id},
		{Kind: obs.KindPromote, Trace: 77, Size: 480, Module: 3, From: obs.LevelNursery, To: obs.LevelProbation, Proc: sr.id},
		{Kind: obs.KindEvict, Trace: 78, Size: 96, From: obs.LevelProbation, Proc: sr.id},
		{Kind: obs.KindProgress, Benchmark: "word", Done: 16384, Total: 70000},
	}
	for i := range events {
		nw.event(&events[i]) // the first lines grow the reused buffer
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := range events {
			nw.event(&events[i])
		}
	}); n != 0 {
		t.Errorf("NDJSON writer: %v allocations per %d event lines, want 0", n, len(events))
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, e := range events {
			sr.Observe(e)
		}
	}); n != 0 {
		t.Errorf("session sink: %v allocations per %d events, want 0", n, len(events))
	}
	if nw.err != nil {
		t.Fatal(nw.err)
	}
}
