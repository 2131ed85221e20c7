package evm

import (
	"errors"
	"sync"

	"repro/internal/metrics"
)

// Metric names exported by the chain.
const (
	MetricTxsTotal           = "evm_txs_total"
	MetricPrevalidateSeconds = "evm_apply_batch_prevalidate_seconds"
	MetricCommitSeconds      = "evm_apply_batch_commit_seconds"
	MetricBatchSize          = "evm_apply_batch_size"
	MetricSenderCacheMisses  = "evm_sender_cache_misses_total"
	MetricExecConflicts      = "evm_exec_conflicts_total"
	MetricExecReexecutions   = "evm_exec_reexecutions"
	MetricExecParallelSecs   = "evm_exec_parallel_seconds"
)

// chainMetrics holds one Chain's instrumentation handles. Outcome
// counters are cached per label value so the commit path pays one
// sync.Map read, not a registry lookup, per transaction.
type chainMetrics struct {
	reg         *metrics.Registry
	prevalidate *metrics.Histogram
	commit      *metrics.Histogram
	batchSize   *metrics.Histogram
	conflicts   *metrics.Counter
	reexecs     *metrics.Histogram
	parallel    *metrics.Histogram
	outcomes    sync.Map // outcome label -> *metrics.Counter
}

func newChainMetrics(reg *metrics.Registry) *chainMetrics {
	m := &chainMetrics{
		reg: reg,
		prevalidate: reg.Histogram(MetricPrevalidateSeconds,
			"Batch Execute phase 1: parallel sender recovery and token prevalidation, per batch.", nil),
		commit: reg.Histogram(MetricCommitSeconds,
			"Batch Execute phase 3: in-order repair, state commit and persist under the chain mutex, per batch.", nil),
		batchSize: reg.Histogram(MetricBatchSize,
			"Transactions per batch Execute call.", metrics.DefSizeBuckets),
		conflicts: reg.Counter(MetricExecConflicts,
			"Optimistic-scheduler conflicts: wave executions whose read-set met an earlier transaction's write."),
		reexecs: reg.Histogram(MetricExecReexecutions,
			"Re-executions per optimistic batch: one per conflict, so at most the batch size.", metrics.DefSizeBuckets),
		parallel: reg.Histogram(MetricExecParallelSecs,
			"Batch Execute phase 2: speculative parallel wave against the pre-batch state, per batch.", nil),
	}
	// The count is process-wide; expose it as a scrape-time func so its
	// atomic is the single source of truth.
	reg.CounterFunc(MetricSenderCacheMisses, "Sender ecrecovers the per-transaction memo did not save.",
		func() uint64 { return senderRecoveries.Load() })
	return m
}

// recordOutcome counts one applied transaction under its outcome label.
func (m *chainMetrics) recordOutcome(outcome string) {
	if c, ok := m.outcomes.Load(outcome); ok {
		c.(*metrics.Counter).Inc()
		return
	}
	c := m.reg.Counter(MetricTxsTotal,
		"Transactions fed through Apply/Execute, by outcome.", metrics.L("outcome", outcome))
	m.outcomes.Store(outcome, c)
	c.Inc()
}

// recordOutcomes counts every transaction of a finished batch, in slice
// order. Durable replay does not come through here, so historical
// transactions do not inflate the live series.
func (m *chainMetrics) recordOutcomes(results []BatchResult) {
	for _, res := range results {
		m.recordOutcome(txOutcome(res.Receipt, res.Err))
	}
}

// revertOutcome is implemented by revert errors that carry their own
// outcome label. The chain's own rejection reasons (nonce, balance,
// signature) are classified natively; layers above evm — the core token
// verifier — label their errors this way, because evm cannot import them.
type revertOutcome interface{ RevertOutcome() string }

// txOutcome labels the result of one transaction: "accepted",
// "rejected_*" for transactions that never executed, "reverted_*" for
// executed-and-failed ones.
func txOutcome(receipt *Receipt, err error) string {
	if err != nil {
		switch {
		case errors.Is(err, ErrNonceTooLow):
			return "rejected_nonce_too_low"
		case errors.Is(err, ErrNonceTooHigh):
			return "rejected_nonce_too_high"
		case errors.Is(err, ErrInsufficientETH):
			return "rejected_insufficient_balance"
		case errors.Is(err, ErrBadTxSignature):
			return "rejected_bad_signature"
		case errors.Is(err, ErrIntrinsicGas):
			return "rejected_intrinsic_gas"
		case errors.Is(err, ErrContractNotFound):
			return "rejected_no_contract"
		default:
			return "rejected_other"
		}
	}
	if receipt.Status {
		return "accepted"
	}
	var labeled revertOutcome
	if errors.As(receipt.Err, &labeled) {
		return "reverted_" + labeled.RevertOutcome()
	}
	return "reverted_other"
}
