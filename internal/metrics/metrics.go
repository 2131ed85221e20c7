// Package metrics is the dependency-free instrumentation layer of the
// SMACS reproduction: atomic counters and gauges, fixed-bucket latency
// histograms with percentile extraction, and a named registry that
// renders the Prometheus text exposition format. The paper's Token
// Service sits in the transaction hot path (§ IV), so every primitive
// here is allocation-conscious — an Observe or Inc on the hot path is a
// handful of atomic operations, never a lock around a map.
//
// Metric families are get-or-create: asking a registry twice for the
// same name (and label set) returns the same instance, so independent
// subsystems — the Token Service, the HTTP frontend, the chain, the WAL
// — can each grab their series without coordinating registration order.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing counter. All methods are safe
// for concurrent use; Inc/Add are single atomic adds.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight requests, spreads,
// sizes). All methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// kind discriminates the metric families a registry can hold.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance inside a family: exactly one of the
// typed fields is set, matching the family's kind.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() uint64
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series // key = canonical label signature
	order  []string           // registration order, for stable rendering
}

// Registry holds named metric families and renders them in Prometheus
// text exposition format. The zero value is not usable; use NewRegistry.
// There is no process-wide registry: whoever owns a stack builds one and
// hands it to every layer whose series one scrape should cover.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Or returns r, or a fresh private registry when r is nil — the idiom
// every Config-embedded *Registry field resolves through. A component
// given no registry still records, into series nothing scrapes.
func Or(r *Registry) *Registry {
	if r == nil {
		return NewRegistry()
	}
	return r
}

// labelKey builds the canonical signature of a label set (sorted by
// name), so the same series is found regardless of argument order.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// familyFor returns the named family, creating it on first use and
// panicking on a kind mismatch — re-registering a name as a different
// type is a programming error no caller can meaningfully handle.
func (r *Registry) familyFor(name, help string, k kind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("metrics: %s already registered as %s, not %s", name, f.kind, k))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// seriesFor returns the family's series for the label set, creating it
// with mk on first use.
func (f *family) seriesFor(labels []Label, mk func() *series) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labels = append([]Label(nil), labels...)
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter returns (creating on first use) the named counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, kindCounter, nil)
	return f.seriesFor(labels, func() *series { return &series{c: &Counter{}} }).c
}

// Gauge returns (creating on first use) the named gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.familyFor(name, help, kindGauge, nil)
	return f.seriesFor(labels, func() *series { return &series{g: &Gauge{}} }).g
}

// Histogram returns (creating on first use) the named histogram series.
// buckets are the upper bounds (see DefLatencyBuckets); nil selects
// DefLatencyBuckets. The bounds of the first registration win.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := r.familyFor(name, help, kindHistogram, buckets)
	return f.seriesFor(labels, func() *series { return &series{h: NewHistogram(f.buckets)} }).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters (cache hit/miss
// stats) that should not be counted twice. The first registration for a
// given name and label set wins; later ones are ignored.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	f := r.familyFor(name, help, kindCounterFunc, nil)
	f.seriesFor(labels, func() *series { return &series{fn: fn} })
}

// snapshotFamilies copies the family list under the registry lock so
// rendering never holds it across user callbacks.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (text/plain; version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	snap := make([]*series, 0, len(f.order))
	for _, key := range f.order {
		snap = append(snap, f.series[key])
	}
	f.mu.Unlock()
	if len(snap) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, s := range snap {
		if err := f.writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

// renderLabels formats a label set (plus an optional extra label, used
// for histogram le) as {a="x",b="y"}, or "" when empty.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (f *family) writeSeries(w io.Writer, s *series) error {
	lbl := renderLabels(s.labels)
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, s.c.Value())
		return err
	case kindCounterFunc:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, s.fn())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, s.g.Value())
		return err
	case kindHistogram:
		snap := s.h.Snapshot()
		cum := uint64(0)
		for i, bound := range snap.Buckets {
			cum += snap.Counts[i]
			le := renderLabels(s.labels, L("le", formatFloat(bound)))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
				return err
			}
		}
		inf := renderLabels(s.labels, L("le", "+Inf"))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, inf, snap.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, lbl, formatFloat(snap.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, lbl, snap.Count)
		return err
	}
	return nil
}

// Handler returns an http.Handler serving the registry in Prometheus
// text exposition format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
