package core

import "repro/internal/metrics"

// Token-signature cache metric names.
const (
	MetricTokenCacheHits   = "core_token_sig_cache_hits_total"
	MetricTokenCacheMisses = "core_token_sig_cache_misses_total"
)

// outcomeError is a sentinel error that carries the label the chain
// counts its reverts under (evm_txs_total{outcome="reverted_<label>"}).
// evm cannot import core (core builds the SMACS contracts on top of the
// chain), so it reads the label through errors.As.
type outcomeError struct{ msg, outcome string }

func (e *outcomeError) Error() string         { return e.msg }
func (e *outcomeError) RevertOutcome() string { return e.outcome }

func newOutcomeError(msg, outcome string) error { return &outcomeError{msg, outcome} }

// RegisterCacheMetrics exposes the process-wide token-signature cache on
// reg as scrape-time counter funcs. The chain registers its own sender
// cache; a caller that wants both series on one registry (the repo
// benchmark's stack) calls this once per registry.
func RegisterCacheMetrics(reg *metrics.Registry) {
	reg = metrics.Or(reg)
	reg.CounterFunc(MetricTokenCacheHits, "Shared token-signature cache hits.",
		func() uint64 { h, _ := TokenSigCacheStats(); return h })
	reg.CounterFunc(MetricTokenCacheMisses, "Shared token-signature cache misses.",
		func() uint64 { _, m := TokenSigCacheStats(); return m })
}
