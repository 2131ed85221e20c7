package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// processStart anchors setup_s. Package initialisation runs before main,
// so this is within a millisecond of exec.
var processStart = time.Now()

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// an exact order statistic of the samples, never a bucket edge.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss (KiB on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// boxSpeedMs times a fixed pure-CPU loop (no benchmark or repo code) on every
// core at once. It is a note, not a metric and not a correction: this shared
// box slows down by tens of percent for minutes at a time, and the note hints
// at whether a run fell into such an episode.
func boxSpeedMs() float64 {
	start := time.Now()
	_ = parallel(runtime.GOMAXPROCS(0), func(int) error {
		h := sha256.Sum256(nil)
		for i := 0; i < 1_000_000; i++ {
			h = sha256.Sum256(h[:])
		}
		return nil
	})
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// sample is the process state at one slice boundary.
type sample struct {
	at      time.Time
	ops     int64
	cpu     time.Duration
	mallocs uint64
	// traced says whether the slice that STARTS here ran with tracing on.
	traced bool
}

// meter cuts the measured interval into slices and keeps per-slice rates.
// End-to-end rates are medians over slices: one stall of this shared box
// then moves one slice, not the result.
type meter struct {
	ops     atomic.Int64 // correct ops completed
	mu      sync.Mutex
	samples []sample
	tr      *tracer
}

// mark closes the current slice and opens the next. In a traced run the
// slices alternate between tracing on and off (see traceOverhead).
func (m *meter) mark() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mu.Lock()
	defer m.mu.Unlock()
	on := m.tr != nil && len(m.samples)%2 == 0
	m.tr.set(on)
	m.samples = append(m.samples, sample{at: time.Now(), ops: m.ops.Load(), cpu: cpuTime(), mallocs: ms.Mallocs, traced: on})
}

// every marks a slice boundary each sliceMillis until stop is closed,
// then marks the end of the interval.
func (m *meter) every(stop <-chan struct{}) {
	t := time.NewTicker(sliceMillis * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.mark()
		case <-stop:
			m.mark()
			return
		}
	}
}

// rates are the per-slice rates of one kind of slice and their medians.
type rates struct {
	opsPerS, cpuMsPerOp, allocsPerOp float64
	sliceOps, sliceCPU               []float64
	index                            []int // position of each kept slice in the run
	ops                              int64
	wall                             time.Duration
}

// ratesOf summarises the slices whose traced flag equals traced. A slice in
// which no op completed has no per-op rate, and a sliver (the tail of the
// interval, or a boundary that came late) has a meaningless one: both are
// left out.
func (m *meter) ratesOf(traced bool) rates {
	var r rates
	var ops, cpu, allocs []float64
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i+1 < len(m.samples); i++ {
		a, b := m.samples[i], m.samples[i+1]
		wall := b.at.Sub(a.at)
		if a.traced != traced || b.ops == a.ops || wall < sliceMillis*time.Millisecond/2 {
			continue
		}
		n := float64(b.ops - a.ops)
		r.index = append(r.index, i)
		ops = append(ops, n/wall.Seconds())
		cpu = append(cpu, float64(b.cpu-a.cpu)/float64(time.Millisecond)/n)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
		r.ops += b.ops - a.ops
		r.wall += wall
	}
	r.sliceOps, r.sliceCPU = ops, cpu
	r.opsPerS, r.cpuMsPerOp, r.allocsPerOp = median(ops), median(cpu), median(allocs)
	return r
}

// traceOverhead compares each traced slice with the untraced slice that
// follows it, which cancels the box's slow drift, and returns the median
// share of throughput lost (closed loop) or of CPU per op gained (open loop,
// where the rate is offered and cannot drop). ok is false without a pair.
func (m *meter) traceOverhead(openLoop bool) (share float64, ok bool) {
	on, off := m.ratesOf(true), m.ratesOf(false)
	var shares []float64
	for i, j := 0, 0; i < len(on.index) && j < len(off.index); {
		switch {
		case off.index[j] < on.index[i]+1:
			j++
		case off.index[j] > on.index[i]+1:
			i++
		case openLoop:
			shares = append(shares, on.sliceCPU[i]/off.sliceCPU[j]-1)
			i, j = i+1, j+1
		default:
			shares = append(shares, 1-on.sliceOps[i]/off.sliceOps[j])
			i, j = i+1, j+1
		}
	}
	return median(shares), len(shares) > 0
}

// tracedWall is the wall time of the slices that ran with tracing on.
func (m *meter) tracedWall() time.Duration { return m.ratesOf(true).wall }
