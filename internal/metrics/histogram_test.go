package metrics

import (
	"slices"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("empty histogram not zeroed: count=%d sum=%g", h.Count(), h.Sum())
	}
}

// A single sample lands in the first bucket whose bound is at or above
// it, and the sum reports it exactly.
func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0.004)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Sum != 0.004 {
		t.Errorf("count=%d sum=%g, want 1 and 0.004", snap.Count, snap.Sum)
	}
	if want := []uint64{0, 1, 0}; !slices.Equal(snap.Counts, want) {
		t.Errorf("buckets %v, want %v", snap.Counts, want)
	}
}

// Values past the last bound land in the overflow bucket, which only
// the total count holds.
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(5)
	h.Observe(7)
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if got := snap.Counts[0] + snap.Counts[1]; got != 1 {
		t.Errorf("bounded buckets hold %d, want 1", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// A value exactly on a bound counts toward that bucket (le semantics).
	h.Observe(2)
	snap := h.Snapshot()
	if snap.Counts[1] != 1 {
		t.Errorf("value on the bound landed in buckets %v, want index 1", snap.Counts)
	}
	h.Observe(1)
	h.Observe(4)
	if got, want := h.Snapshot().Counts, []uint64{1, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatal("duration not recorded")
	}
	if got := h.Sum(); got < 0.0029 || got > 0.0031 {
		t.Errorf("sum = %g, want 0.003", got)
	}
}
