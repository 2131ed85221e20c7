package tshttp

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
)

// HTTP metric names exported by the Token Service frontend.
const (
	MetricRequests = "http_requests_total"
	MetricLatency  = "http_request_seconds"
	MetricInFlight = "http_in_flight_requests"
)

// serverMetrics holds the frontend's instrumentation handles. Latency
// histograms are pre-resolved per route; the per-status counters are
// resolved on first use and then cached per route (see requestCounter).
type serverMetrics struct {
	reg      *metrics.Registry
	inFlight *metrics.Gauge
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		reg:      reg,
		inFlight: reg.Gauge(MetricInFlight, "API requests currently being served."),
	}
}

// statusRecorder captures the response code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// recorders recycles statusRecorders: one passed to a handler as its
// http.ResponseWriter escapes, so a fresh one per request would be a heap
// allocation per request.
var recorders = sync.Pool{New: func() any { return new(statusRecorder) }}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps one API route with request counting, latency
// observation, and the in-flight gauge.
func (s *Server) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.reg.Histogram(MetricLatency,
		"API request latency by route.", nil, metrics.L("route", route))
	var byCode sync.Map // status code -> *metrics.Counter
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inFlight.Inc()
		start := time.Now()
		rec := recorders.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		next(rec, r)
		status := rec.status
		rec.ResponseWriter = nil
		recorders.Put(rec)
		hist.ObserveDuration(time.Since(start))
		s.metrics.inFlight.Dec()
		s.requestCounter(&byCode, route, status).Inc()
	}
}

// requestCounter returns the route's http_requests_total series for
// code, cached in byCode. A code's series is registered by the first
// request that answers with it, so /metrics lists only codes the route
// has answered, in the order it first answered them.
func (s *Server) requestCounter(byCode *sync.Map, route string, code int) *metrics.Counter {
	if c, ok := byCode.Load(code); ok {
		return c.(*metrics.Counter)
	}
	c := s.metrics.reg.Counter(MetricRequests, "API requests by route and status code.",
		metrics.L("route", route), metrics.L("code", strconv.Itoa(code)))
	byCode.Store(code, c)
	return c
}
