package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evm"
	"repro/internal/store"
	"repro/internal/ts"
)

// Tracing lives entirely in the benchmark: decorators around the values
// the driver hands to the layers' constructors, and timers around the
// calls the driver makes. An untraced run installs none of them.

type spanKind uint8

const (
	spSignRequest   spanKind = iota // core.SignRequest, by the driver
	spRoundtrip                     // Client.RequestToken(s), by the driver
	spHandler                       // Token Service HTTP handler
	spCounterNext                   // Counter.Next as ts.Service calls it
	spLease                         // Next of the counter under ShardedCounter
	spRPC                           // one coordinator -> replica request
	spNodeHandler                   // replica Node HTTP handler
	spBuildTx                       // build + evm.SignTx, by the driver
	spExecute                       // one Chain.Execute call
	spPrevalidate                   // one PrevalidateBatch call
	spAppendChain                   // Backend.Append under the chain
	spAppendCounter                 // Backend.Append under store.Counter
	spAppendNode                    // Backend.Append under a replica Node
	spKinds
)

const noParent = spKinds

// spanInfo is the static part of the hierarchy: which kind of span causes
// which. byID says the child carries its parent's id (the op id a worker
// published, or the request id that crossed in a header); otherwise the
// parent is the tightest span of the parent kind that contains the child
// in time.
var spanInfo = [spKinds]struct {
	name   string
	parent spanKind
	byID   bool
}{
	spSignRequest:   {"wallet.sign_request", noParent, false},
	spRoundtrip:     {"tshttp.roundtrip", noParent, false},
	spHandler:       {"tshttp.handler", spRoundtrip, true},
	spCounterNext:   {"ts.counter_next", spHandler, false},
	spLease:         {"ts.lease", spCounterNext, false},
	spRPC:           {"replica.rpc", spLease, false},
	spNodeHandler:   {"replica.node_handler", spRPC, true},
	spBuildTx:       {"wallet.build_tx", noParent, false},
	spExecute:       {"evm.execute", noParent, false},
	spPrevalidate:   {"evm.prevalidate", spExecute, false},
	spAppendChain:   {"store.append/chain", spExecute, false},
	spAppendCounter: {"store.append/counter", spLease, false},
	spAppendNode:    {"store.append/node", spNodeHandler, false},
}

// span is one crossing of a layer boundary, in ns since the tracer epoch.
type span struct {
	kind       spanKind
	id         int64 // op, request or block id; -1 when the boundary carries none
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	rpcID atomic.Int64
	// Counts taken at the same boundaries, while tracing is on.
	reqBytes, respBytes, requests atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin returns the span's start, or -1 when nothing is recorded. A span
// is kept only if tracing was on when it began, so an untraced slice
// leaves no partial spans behind.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) end(kind spanKind, id, start int64) {
	if start < 0 {
		return
	}
	s := span{kind: kind, id: id, start: start, end: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// of returns the spans of one kind, sorted by start.
func (t *tracer) of(kind spanKind) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

func durationsUs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e3
	}
	return out
}

// assign gives every child the index of its parent in parents (sorted by
// start), or -1. With byID the parent is the span with the child's id that
// contains it; otherwise the tightest containing span, which among spans
// sorted by start is the last one that starts before the child and ends
// after it.
func assign(parents, children []span, byID bool) []int {
	out := make([]int, len(children))
	for ci, c := range children {
		out[ci] = -1
		hi := sort.Search(len(parents), func(i int) bool { return parents[i].start > c.start })
		// Parents overlap only as far as the load generator is
		// concurrent, so a short scan back finds the container.
		for pi := hi - 1; pi >= 0 && pi >= hi-256; pi-- {
			p := parents[pi]
			if p.end >= c.end && (!byID || p.id == c.id) {
				out[ci] = pi
				break
			}
		}
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo,hi].
func covered(iv []span, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, end int64 = 0, lo
	for _, s := range iv {
		a, b := max(s.start, end), min(s.end, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// selfTimes returns, per parent, its duration minus the part its children
// cover: nested children count once, overlapping children count by their
// union.
func selfTimes(parents, children []span, byID bool) []int64 {
	kids := make([][]span, len(parents))
	for ci, pi := range assign(parents, children, byID) {
		if pi >= 0 {
			kids[pi] = append(kids[pi], children[ci])
		}
	}
	out := make([]int64, len(parents))
	for i, p := range parents {
		out[i] = p.dur() - covered(kids[i], p.start, p.end)
	}
	return out
}

// dump writes every span with its resolved parent as one JSON document.
func (t *tracer) dump(path string) error {
	type row struct {
		Name    string `json:"name"`
		ID      int64  `json:"id"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int    `json:"parent"`
	}
	var byKind [spKinds][]span
	var offset [spKinds]int
	n := 0
	for k := spanKind(0); k < spKinds; k++ {
		byKind[k] = t.of(k)
		offset[k] = n
		n += len(byKind[k])
	}
	rows := make([]row, 0, n)
	for k := spanKind(0); k < spKinds; k++ {
		info := spanInfo[k]
		var parents []int
		if info.parent != noParent {
			parents = assign(byKind[info.parent], byKind[k], info.byID)
		}
		for i, s := range byKind[k] {
			parent := -1
			if parents != nil && parents[i] >= 0 {
				parent = offset[info.parent] + parents[i]
			}
			rows = append(rows, row{info.name, s.id, s.start, s.end, parent})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": rows}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCounter times a ts.Counter and counts its calls.
type tracedCounter struct {
	inner ts.Counter
	tr    *tracer
	kind  spanKind
	calls atomic.Int64
}

func (c *tracedCounter) Next() (int64, error) {
	s := c.tr.begin()
	n, err := c.inner.Next()
	c.tr.end(c.kind, -1, s)
	if s >= 0 {
		c.calls.Add(1)
	}
	return n, err
}

// tracedBackend times Append on a store.Backend.
type tracedBackend struct {
	store.Backend
	tr      *tracer
	kind    spanKind
	appends atomic.Int64
}

func (b *tracedBackend) Append(rec store.Record) error {
	s := b.tr.begin()
	err := b.Backend.Append(rec)
	b.tr.end(b.kind, -1, s)
	if s >= 0 {
		b.appends.Add(1)
	}
	return err
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware records one span per request; id names the span that caused
// the request.
func (t *tracer) middleware(kind spanKind, id func(*http.Request) int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := t.begin()
		if s < 0 {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.end(kind, id(r), s)
		if kind == spHandler {
			t.requests.Add(1)
			t.reqBytes.Add(max(r.ContentLength, 0))
			t.respBytes.Add(cw.n)
		}
	})
}

// spanHeader carries the id of the request span across an HTTP hop.
const spanHeader = "X-Bench-Span"

func headerID(r *http.Request) int64 {
	id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// tracedTransport stamps a fresh id into each coordinator request and
// records the round trip under it.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (rt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s := rt.tr.begin()
	if s < 0 {
		return rt.inner.RoundTrip(r)
	}
	id := rt.tr.rpcID.Add(1)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := rt.inner.RoundTrip(r)
	rt.tr.end(spRPC, id, s)
	return resp, err
}

// tracedPrehook times a PrevalidateBatch hook.
func (t *tracer) prehook(hook func([]*evm.Transaction)) func([]*evm.Transaction) {
	if t == nil {
		return hook
	}
	return func(txs []*evm.Transaction) {
		s := t.begin()
		hook(txs)
		t.end(spPrevalidate, -1, s)
	}
}

// listenerKey tags a connection's context with the index of the listener
// it arrived on. Every load-generator worker dials its own listener, so
// the handler knows which worker's op it serves without a header (the
// tshttp client has no hook to stamp one).
type listenerKey struct{}

func listenerIndex(ctx context.Context) int {
	i, _ := ctx.Value(listenerKey{}).(int)
	return i
}
