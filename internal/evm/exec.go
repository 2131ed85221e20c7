package evm

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/secp256k1"
	"repro/internal/sigcache"
	"repro/internal/types"
)

// Scheduler selects how Chain.Execute orders and parallelizes a batch.
type Scheduler int

const (
	// SchedulerSerial applies transactions one at a time under the chain
	// mutex, exactly like repeated Apply calls. It has no parallel phase:
	// it is what Apply runs, and the oracle every equivalence test
	// compares against.
	SchedulerSerial Scheduler = iota
	// SchedulerOptimistic is the batch scheduler. The state-independent
	// work — batched sender recovery and the prevalidation hook — runs
	// in a parallel phase outside the chain mutex; then every
	// transaction executes speculatively in parallel against a versioned
	// snapshot (Block-STM style), and one in-order pass validates each
	// read-set and re-executes the transactions an earlier write
	// invalidated. A batch of n transactions costs at most 2n
	// executions: conflict-free batches run as one parallel wave, fully
	// conflicting ones degenerate to a serial in-order commit. Receipts
	// are byte-identical to serial execution.
	SchedulerOptimistic
)

// String names the scheduler for flags and logs.
func (s Scheduler) String() string {
	switch s {
	case SchedulerSerial:
		return "serial"
	case SchedulerOptimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("scheduler(%d)", int(s))
	}
}

// BatchResult is the outcome of one transaction in an Execute call:
// exactly one of Receipt/Err is set, mirroring Apply's return values (a
// commit that executed but whose batch failed to persist carries both,
// the error wrapping ErrChainPoisoned).
type BatchResult struct {
	// Receipt is the execution receipt of the committed transaction.
	Receipt *Receipt
	// Err is the rejection reason for transactions that never executed
	// (bad signature, nonce mismatch, insufficient balance, …).
	Err error
}

// ExecOptions parameterizes Chain.Execute.
type ExecOptions struct {
	// Scheduler selects the execution strategy; the zero value is
	// SchedulerSerial.
	Scheduler Scheduler
	// Workers bounds the parallel phase (prevalidation pool, optimistic
	// execution lanes); 0 means GOMAXPROCS. Serial scheduling ignores it.
	Workers int
	// PrevalidateBatch, when set, runs in the parallel prevalidation
	// phase, outside the chain mutex. It receives contiguous sub-batches
	// (one per worker) so implementations can amortize crypto across
	// items — core.BatchTokenPrehook feeds them to
	// secp256k1.RecoverAddressBatch — and may be called concurrently on
	// disjoint sub-batches. It is a warm-up hook that communicates only
	// by side effect (warming caches): the authoritative checks run again
	// at execution time.
	PrevalidateBatch func([]*Transaction)
}

// Execute verifies and executes a batch of signed transactions under the
// selected scheduler and returns one result per transaction, in slice
// order. Whatever the scheduler, the outcome is serially equivalent:
// receipts, state, and per-sender nonce ordering match applying the slice
// one transaction at a time. A rejected transaction does not abort the
// batch; later transactions still commit.
//
// With a store attached, Execute returns only once the commit records of
// every transaction the batch mined are durable — one AppendBatch, so one
// sync, per call. If that fails the chain is poisoned: the mined
// transactions carry their receipts and the error, and every later call
// fails with ErrChainPoisoned until the chain is rebuilt by RecoverChain.
func (ch *Chain) Execute(txs []*Transaction, opts ExecOptions) []BatchResult {
	results := make([]BatchResult, len(txs))
	if len(txs) == 0 {
		return results
	}

	if opts.Scheduler == SchedulerSerial {
		ch.mu.Lock()
		defer ch.mu.Unlock()
		if ch.rejectPoisonedLocked(results) {
			return results
		}
		for i, tx := range txs {
			results[i].Receipt, results[i].Err = ch.applyAtLocked(tx, ch.cfg.Now())
		}
		ch.persistBatchLocked(txs, results)
		ch.metrics.recordOutcomes(results)
		return results
	}
	if opts.Scheduler != SchedulerOptimistic {
		panic(fmt.Sprintf("evm: unknown scheduler %d", int(opts.Scheduler)))
	}

	ch.metrics.batchSize.Observe(float64(len(txs)))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(txs) {
		workers = len(txs)
	}

	ch.prevalidateParallel(txs, workers, opts.PrevalidateBatch)
	ch.executeOptimistic(txs, workers, results)
	return results
}

// prevalidateParallel runs the state-independent warm-up phase: batched
// sender recovery into the shared cache plus the caller's prevalidation
// hook, sharded into contiguous per-worker chunks outside the chain
// mutex. Recovery errors are deliberately dropped — execution re-derives
// them deterministically, keeping scheduler behaviour identical for bad
// transactions.
func (ch *Chain) prevalidateParallel(txs []*Transaction, workers int, hook func([]*Transaction)) {
	start := time.Now()
	chainID := ch.cfg.ChainID
	chunk := (len(txs) + workers - 1) / workers
	var wg sync.WaitGroup
	for off := 0; off < len(txs); off += chunk {
		end := off + chunk
		if end > len(txs) {
			end = len(txs)
		}
		sub := txs[off:end]
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmSenderCache(sub, chainID)
			if hook != nil {
				hook(sub)
			}
		}()
	}
	wg.Wait()
	ch.metrics.prevalidate.ObserveDuration(time.Since(start))
}

// warmSenderCache recovers the senders of txs with the amortized batch
// recovery and installs the results in the per-transaction memos and the
// shared sender cache, so later Sender calls only re-hash and compare.
// Transactions already memoized or cached are skipped; invalid ones are
// left for execution to reject with the exact per-item error.
func warmSenderCache(txs []*Transaction, chainID uint64) {
	var (
		idx      []int
		digests  [][32]byte
		sigs     []secp256k1.Signature
		sigBytes [][secp256k1.SignatureLength]byte
		keys     []string
	)
	for i, tx := range txs {
		if tx.Sig.Validate() != nil {
			continue
		}
		digest, err := tx.SigHash(chainID)
		if err != nil {
			continue
		}
		var sb [secp256k1.SignatureLength]byte
		copy(sb[:], tx.Sig.Bytes())
		if m := tx.memo.Load(); m != nil && m.digest == digest && m.sig == sb {
			continue
		}
		key := sigcache.Key([32]byte(digest), sb[:])
		if addr, ok := senderCache.Get(key); ok {
			tx.memo.Store(&senderMemo{digest: digest, sig: sb, sender: addr})
			continue
		}
		idx = append(idx, i)
		digests = append(digests, [32]byte(digest))
		sigs = append(sigs, tx.Sig)
		sigBytes = append(sigBytes, sb)
		keys = append(keys, key)
	}
	if len(idx) == 0 {
		return
	}
	addrs, errs := secp256k1.RecoverAddressBatch(digests, sigs)
	for j, i := range idx {
		if errs[j] != nil {
			continue
		}
		senderCache.Add(keys[j], addrs[j])
		txs[i].memo.Store(&senderMemo{digest: types.Hash(digests[j]), sig: sigBytes[j], sender: addrs[j]})
	}
}
