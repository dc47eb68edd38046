package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run from the
// benchmark's own code around the call.
type span struct {
	name       string
	parent     int // index of the span that caused it; -1 for none
	start, end time.Duration
}

// tracer keeps a run's spans in memory. Every method is safe on a nil
// tracer, which records nothing: the untraced loop passes nil.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for child spans.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// total sums the durations of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			sum += s.end - s.start
		}
	}
	return sum
}
