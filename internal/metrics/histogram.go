package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the default histogram bounds for latencies in
// seconds: 50µs to 10s, roughly ×2–2.5 per step — wide enough to span a
// cache-hit token issue (tens of µs) and a quorum-replicated durable
// commit (tens of ms) in the same series.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets are the default histogram bounds for unitless sizes
// (batch lengths, fsync group sizes): powers of two from 1 to 1024.
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Histogram is a fixed-bucket histogram. Observe is lock-free: one
// binary search over the (immutable) bounds plus three atomic updates, no
// allocation — cheap enough for every request on the issuance hot path.
type Histogram struct {
	bounds []float64       // sorted upper bounds; one overflow bucket past the last
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given sorted upper bounds
// (nil = DefLatencyBuckets). Most callers want Registry.Histogram
// instead, which names and registers the series.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = overflow
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a consistent-enough copy of a histogram for
// rendering: per-bucket counts (non-cumulative), total count and sum.
// Under concurrent observation the fields may be offset by in-flight
// Observes; treat cross-field arithmetic as approximate.
type HistogramSnapshot struct {
	Buckets []float64 // upper bounds
	Counts  []uint64  // per-bucket (non-cumulative); the overflow bucket is folded into Count
	Count   uint64
	Sum     float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: h.bounds,
		Counts:  make([]uint64, len(h.bounds)),
		Count:   h.count.Load(),
		Sum:     h.Sum(),
	}
	for i := range h.bounds {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
