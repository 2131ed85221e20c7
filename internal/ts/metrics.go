package ts

import (
	"errors"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rules"
)

// Metric names exported by the Token Service. Every series is
// get-or-create on the service's registry, so several Service instances
// sharing one registry (e.g. the e2e harness's main and expired
// frontends) aggregate into the same series; GET /v1/stats remains the
// per-frontend view and the e2e harness cross-checks the two.
const (
	MetricTokensIssued = "ts_tokens_issued_total"
	MetricTokensDenied = "ts_tokens_denied_total"
	MetricIssueSeconds = "ts_issue_seconds"
	MetricBatchSize    = "ts_issue_batch_size"
	MetricLeaseSpread  = "ts_counter_lease_spread"
	// MetricLeaseReclaimed counts one-time indexes adopted back from a
	// predecessor's released block leases instead of burned. It belongs
	// to the counter's owner (the daemon or harness), not the Service —
	// several Services can front one counter.
	MetricLeaseReclaimed = "ts_lease_reclaimed_total"
	// MetricMembershipEpoch is the replica-group membership view epoch
	// this frontend serves under (0 = no membership manager, no view
	// adopted).
	MetricMembershipEpoch = "ts_membership_epoch"
)

// Denial reason label values, in the order the issuance path checks
// them. "other" is the catch-all, so the reason counters always sum to
// the denied total.
var denyReasons = []string{
	"bad_request", "wrong_contract", "rule_denied", "validator", "counter", "other",
}

// serviceMetrics holds one Service's pre-resolved metric handles: the
// hot path increments them without touching the registry.
type serviceMetrics struct {
	issued       *metrics.Counter
	denied       map[string]*metrics.Counter
	issueSeconds *metrics.Histogram
	batchSize    *metrics.Histogram
	leaseSpread  *metrics.Gauge
}

func newServiceMetrics(reg *metrics.Registry) *serviceMetrics {
	m := &serviceMetrics{
		issued: reg.Counter(MetricTokensIssued, "Tokens issued by the Token Service."),
		denied: make(map[string]*metrics.Counter, len(denyReasons)),
		issueSeconds: reg.Histogram(MetricIssueSeconds,
			"Latency of one token issuance (validation, rules, counter, signing).", nil),
		batchSize: reg.Histogram(MetricBatchSize,
			"Requests per IssueBatch call.", metrics.DefSizeBuckets),
		leaseSpread: reg.Gauge(MetricLeaseSpread,
			"Worst-case one-time index spread of the configured counter (0 = strictly increasing)."),
	}
	for _, reason := range denyReasons {
		m.denied[reason] = reg.Counter(MetricTokensDenied,
			"Token requests denied, by reason.", metrics.L("reason", reason))
	}
	return m
}

// denyReason classifies an issuance error into its metric label.
func denyReason(err error) string {
	switch {
	case errors.Is(err, core.ErrBadRequest):
		return "bad_request" // malformed request, bad proof of possession
	case errors.Is(err, ErrWrongContract):
		return "wrong_contract"
	case errors.Is(err, rules.ErrDenied):
		return "rule_denied"
	case errors.Is(err, ErrValidatorRejected):
		return "validator"
	case errors.Is(err, ErrCounterUnavailable):
		return "counter"
	default:
		return "other"
	}
}

// RegisterCounterMetrics wires the counter-ownership series onto reg:
// ts_lease_reclaimed_total reads the counter's Reclaimed total at scrape
// time (0 when the counter does not reclaim, so the series — and the CI
// metrics-smoke grep — always renders), and ts_membership_epoch is
// registered at zero, to be raised by a membership manager when a view
// is adopted. Call it once per registry, from
// whoever owns the counter.
func RegisterCounterMetrics(reg *metrics.Registry, counter Counter) {
	reg = metrics.Or(reg)
	src := func() uint64 { return 0 }
	if rc, ok := counter.(interface{ Reclaimed() int64 }); ok {
		src = func() uint64 { return uint64(rc.Reclaimed()) }
	}
	reg.CounterFunc(MetricLeaseReclaimed,
		"One-time indexes adopted back from released block leases instead of burned.", src)
	reg.Gauge(MetricMembershipEpoch,
		"Replica-group membership view epoch in effect (0 = no membership view).")
}

// RegistryStats reads the registry-level issuance totals — the sum over
// every Service sharing reg. The e2e harness cross-checks this against
// the per-frontend GET /v1/stats counters, keeping the two views honest
// against each other.
func RegistryStats(reg *metrics.Registry) (issued, denied uint64) {
	reg = metrics.Or(reg)
	issued = reg.Counter(MetricTokensIssued, "").Value()
	for _, reason := range denyReasons {
		denied += reg.Counter(MetricTokensDenied, "", metrics.L("reason", reason)).Value()
	}
	return issued, denied
}
