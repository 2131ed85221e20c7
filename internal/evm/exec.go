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
	// mutex, exactly like repeated Apply calls. It has no parallel phase
	// and the lowest constant overhead — the right choice for single
	// transactions and conflict-saturated batches.
	SchedulerSerial Scheduler = iota
	// SchedulerPrevalidate runs the expensive state-independent work —
	// batched sender recovery and the prevalidation hooks — in a parallel
	// phase outside the chain mutex, then commits serially in slice
	// order. This is the PR-4 ApplyBatch pipeline.
	SchedulerPrevalidate
	// SchedulerOptimistic additionally executes the state transitions
	// themselves in parallel (Block-STM style): every transaction runs
	// speculatively against a versioned snapshot, read/write sets are
	// validated in slice order, and conflicting losers re-execute until
	// the batch is serially equivalent. Receipts are byte-identical to
	// serial execution.
	SchedulerOptimistic
)

// String names the scheduler for flags and logs.
func (s Scheduler) String() string {
	switch s {
	case SchedulerSerial:
		return "serial"
	case SchedulerPrevalidate:
		return "prevalidate"
	case SchedulerOptimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("scheduler(%d)", int(s))
	}
}

// ExecOptions parameterizes Chain.Execute.
type ExecOptions struct {
	// Scheduler selects the execution strategy; the zero value is
	// SchedulerSerial.
	Scheduler Scheduler
	// Workers bounds the parallel phase (prevalidation pool, optimistic
	// execution lanes); 0 means GOMAXPROCS. Serial scheduling ignores it.
	Workers int
	// Prevalidate, when set, runs once per transaction in the parallel
	// prevalidation phase, outside the chain mutex. It is a warm-up hook
	// — core.TokenPrehook uses it to verify token signatures ahead of
	// commit — and must be safe for concurrent use. It communicates only
	// by side effect (warming caches): the authoritative checks run again
	// at execution time.
	Prevalidate func(*Transaction)
	// PrevalidateBatch is the batch-first form of Prevalidate: it
	// receives contiguous sub-batches (one per worker) so implementations
	// can amortize crypto across items — core.BatchTokenPrehook feeds
	// them to secp256k1.RecoverAddressBatch. It may be called
	// concurrently on disjoint sub-batches. When both hooks are set, the
	// batch hook runs first.
	PrevalidateBatch func([]*Transaction)
}

// Execute verifies and executes a batch of signed transactions under the
// selected scheduler and returns one result per transaction, in slice
// order. Whatever the scheduler, the outcome is serially equivalent:
// receipts, state, and per-sender nonce ordering match applying the slice
// one transaction at a time. A rejected transaction does not abort the
// batch; later transactions still commit.
//
// Apply and ApplyBatch are thin wrappers over Execute and remain the
// convenient entry points for the common cases.
func (ch *Chain) Execute(txs []*Transaction, opts ExecOptions) []BatchResult {
	results := make([]BatchResult, len(txs))
	if len(txs) == 0 {
		return results
	}

	if opts.Scheduler == SchedulerSerial {
		ch.mu.Lock()
		defer ch.mu.Unlock()
		for i, tx := range txs {
			results[i].Receipt, results[i].Err = ch.applyLocked(tx)
		}
		return results
	}

	ch.metrics.batchSize.Observe(float64(len(txs)))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(txs) {
		workers = len(txs)
	}

	ch.prevalidateParallel(txs, workers, opts)

	switch opts.Scheduler {
	case SchedulerPrevalidate:
		commitStart := time.Now()
		ch.mu.Lock()
		defer func() {
			ch.mu.Unlock()
			ch.metrics.commit.ObserveDuration(time.Since(commitStart))
		}()
		for i, tx := range txs {
			results[i].Receipt, results[i].Err = ch.applyLocked(tx)
		}
	case SchedulerOptimistic:
		ch.executeOptimistic(txs, workers, results)
	default:
		panic(fmt.Sprintf("evm: unknown scheduler %d", int(opts.Scheduler)))
	}
	return results
}

// prevalidateParallel runs the state-independent warm-up phase: batched
// sender recovery into the shared cache plus the caller's prevalidation
// hooks, sharded into contiguous per-worker chunks outside the chain
// mutex. Recovery errors are deliberately dropped — execution re-derives
// them deterministically, keeping scheduler behaviour identical for bad
// transactions.
func (ch *Chain) prevalidateParallel(txs []*Transaction, workers int, opts ExecOptions) {
	recoverSenders := senderCacheOn.Load()
	if !recoverSenders && opts.Prevalidate == nil && opts.PrevalidateBatch == nil {
		return
	}
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
			if recoverSenders {
				warmSenderCache(sub, chainID)
			}
			if opts.PrevalidateBatch != nil {
				opts.PrevalidateBatch(sub)
			}
			if opts.Prevalidate != nil {
				for _, tx := range sub {
					opts.Prevalidate(tx)
				}
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
