package metrics

import (
	"strings"
	"sync"
	"testing"
)

// Concurrent increments across counters, gauges, and histograms must
// lose nothing (run under -race in CI).
func TestConcurrentIncrementCorrectness(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	g := reg.Gauge("test_in_flight", "in flight")
	h := reg.Histogram("test_latency_seconds", "latency", nil)

	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter lost increments: got %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge should balance to 0, got %d", got)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram lost observations: got %d, want %d", got, goroutines*perG)
	}
	wantSum := float64(goroutines*perG) * 0.001
	if got := h.Sum(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Errorf("histogram sum drifted: got %g, want ≈%g", got, wantSum)
	}
}

// Get-or-create must hand back the same instance for the same name and
// label set, regardless of label order, and concurrent first access must
// not mint duplicates.
func TestGetOrCreateIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "", L("x", "1"), L("y", "2"))
	b := reg.Counter("dup_total", "", L("y", "2"), L("x", "1"))
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if c := reg.Counter("dup_total", "", L("x", "other")); c == a {
		t.Error("different label values returned the same counter")
	}

	var wg sync.WaitGroup
	got := make([]*Counter, 32)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = reg.Counter("race_total", "")
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent get-or-create minted distinct counters")
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clash_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("clash_total", "")
}

// Golden test for the Prometheus text exposition format: series lines,
// HELP/TYPE headers, histogram _bucket/_sum/_count with cumulative
// counts and a +Inf bucket.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ts_tokens_issued_total", "tokens issued").Add(3)
	reg.Counter("ts_tokens_denied_total", "tokens denied", L("reason", "rule_denied")).Add(2)
	reg.Gauge("http_in_flight_requests", "in-flight").Set(1)
	h := reg.Histogram("rt_seconds", "round trip", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ts_tokens_issued_total tokens issued
# TYPE ts_tokens_issued_total counter
ts_tokens_issued_total 3
# HELP ts_tokens_denied_total tokens denied
# TYPE ts_tokens_denied_total counter
ts_tokens_denied_total{reason="rule_denied"} 2
# HELP http_in_flight_requests in-flight
# TYPE http_in_flight_requests gauge
http_in_flight_requests 1
# HELP rt_seconds round trip
# TYPE rt_seconds histogram
rt_seconds_bucket{le="0.1"} 2
rt_seconds_bucket{le="1"} 3
rt_seconds_bucket{le="+Inf"} 4
rt_seconds_sum 3.6
rt_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestCounterFuncReadsAtScrape(t *testing.T) {
	reg := NewRegistry()
	v := uint64(0)
	reg.CounterFunc("cache_hits_total", "hits", func() uint64 { return v })
	v = 42
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cache_hits_total 42") {
		t.Errorf("func counter not read at scrape time:\n%s", b.String())
	}
}
