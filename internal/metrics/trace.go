package metrics

import (
	"encoding/json"
	"sync"
	"time"
)

// Span is one named stage of a traced operation's life — "tokens"
// (wallet → TS round-trip), "queue" (waiting for a batch slot), "commit"
// (inside Chain.Execute), and so on.
type Span struct {
	// Name identifies the stage.
	Name string `json:"name"`
	// StartMicros is the span's start as Unix microseconds.
	StartMicros int64 `json:"startMicros"`
	// DurMicros is the span's length in microseconds.
	DurMicros int64 `json:"durMicros"`
}

// Trace is the reconstructed life of one operation: every stage span
// recorded under its request ID, in recording order.
type Trace struct {
	// ID is the request ID that flowed wallet → TS → chain.
	ID string `json:"id"`
	// Spans are the recorded stages.
	Spans []Span `json:"spans"`
}

// Tracer collects per-request stage spans keyed by request ID, bounded
// to a fixed number of traces so tracing a million-op run samples the
// first N operations instead of holding them all. A nil *Tracer is
// valid and records nothing, so call sites need no guards.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	traces map[string]*Trace
	order  []string
	// dropped counts spans that arrived for new IDs after the cap.
	dropped uint64
}

// DefaultTraceCap bounds a Tracer when NewTracer is given 0.
const DefaultTraceCap = 256

// NewTracer creates a tracer holding at most capacity traces
// (0 = DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{cap: capacity, traces: make(map[string]*Trace, capacity)}
}

// Span records one stage span under the request ID. Spans for IDs beyond
// the tracer's capacity are counted as dropped; spans for already-known
// IDs always append, so a sampled operation's trace stays complete.
func (t *Tracer) Span(id, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[id]
	if !ok {
		if len(t.order) >= t.cap {
			t.dropped++
			return
		}
		tr = &Trace{ID: id}
		t.traces[id] = tr
		t.order = append(t.order, id)
	}
	tr.Spans = append(tr.Spans, Span{
		Name:        name,
		StartMicros: start.UnixMicro(),
		DurMicros:   end.Sub(start).Microseconds(),
	})
}

// Len returns the number of traces held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// Dropped returns how many spans for over-capacity IDs were discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Traces returns the collected traces in first-seen order. The returned
// slice is a copy; the Trace pointers are live (do not mutate them while
// recording continues).
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.traces[id])
	}
	return out
}

// traceDump is the JSON envelope DumpJSON writes.
type traceDump struct {
	Traces  []*Trace `json:"traces"`
	Dropped uint64   `json:"droppedSpans"`
}

// DumpJSON renders every trace as indented JSON — the artifact the e2e
// harness writes so one guarded transaction's life (token round-trip,
// batch queueing, chain commit) can be reconstructed offline.
func (t *Tracer) DumpJSON() ([]byte, error) {
	if t == nil {
		return json.MarshalIndent(traceDump{}, "", "  ")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.traces[id])
	}
	return json.MarshalIndent(traceDump{Traces: out, Dropped: t.dropped}, "", "  ")
}
