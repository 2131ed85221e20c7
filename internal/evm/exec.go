package evm

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/secp256k1"
	"repro/internal/state"
	"repro/internal/types"
)

// Scheduler selects how Chain.Execute orders and parallelizes a batch.
type Scheduler int

const (
	// SchedulerSerial is Execute's in-order commit loop with no wave:
	// under the chain mutex, each position is encoded, drawn its block
	// time, executed on a fresh view and committed before the next one
	// runs, exactly like repeated Apply calls. It has no parallel phase
	// and records none of the optimistic-only series: it is what Apply
	// runs, and the oracle every equivalence test compares against.
	SchedulerSerial Scheduler = iota
	// SchedulerOptimistic is the batch scheduler. The state-independent
	// work — batched sender recovery and the prevalidation hook — runs
	// in a parallel phase outside the chain mutex; then every
	// transaction executes speculatively in parallel against the
	// pre-batch state, and the same in-order commit loop re-executes
	// each transaction whose read-set meets an earlier transaction's
	// writes and commits it. A batch of n transactions costs at most 2n
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
	// phase, outside the chain mutex, once Execute has encoded the
	// sub-batch's transactions and recovered their senders. It receives
	// contiguous sub-batches (one per worker) so implementations can
	// amortize crypto across items — core.BatchTokenPrehook feeds them to
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
// batch; later transactions still commit. Both schedulers end in one
// in-order commit loop (commitLocked): every transaction executes on a
// state.View and reaches the DB through ApplyWrites, and a handler panic
// that serial execution raises propagates after the batch is rolled
// back. The optimistic scheduler runs its parallel phases first.
//
// With a store attached, Execute returns only once the commit records of
// every transaction the batch mined are durable — one AppendBatch, so one
// sync, per call. If that fails the chain is poisoned: the mined
// transactions carry their receipts and the error, and every later call
// fails with ErrChainPoisoned until the chain is rebuilt by RecoverChain.
//
// Execute encodes each transaction once — its calldata, signing digest
// and hash — and every step of the call reads that record: sender
// recovery, the PrevalidateBatch hook (through AppData and Sender), each
// execution and the commit record. The transactions must therefore not be
// mutated while Execute runs. The record is dropped when Execute returns,
// panicking or not, and rebuilt by the next call, so a transaction
// changed between calls is encoded, and its sender recovered, afresh.
func (ch *Chain) Execute(txs []*Transaction, opts ExecOptions) []BatchResult {
	results := make([]BatchResult, len(txs))
	if len(txs) == 0 {
		return results
	}
	defer func() {
		for _, tx := range txs {
			tx.prep.Store(nil)
		}
	}()

	optimistic := opts.Scheduler == SchedulerOptimistic
	if !optimistic && opts.Scheduler != SchedulerSerial {
		panic(fmt.Sprintf("evm: unknown scheduler %d", int(opts.Scheduler)))
	}
	workers := opts.Workers
	if optimistic {
		ch.metrics.batchSize.Observe(float64(len(txs)))
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, len(txs))
		ch.prevalidateParallel(txs, workers, opts.PrevalidateBatch)
	}

	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.rejectPoisonedLocked(results) {
		return results
	}
	var (
		times []time.Time
		execs []txExec
	)
	if optimistic {
		times, execs = ch.speculateLocked(txs, workers)
	}
	commitStart := time.Now()
	conflicts := ch.commitLocked(txs, times, execs, results)
	ch.persistBatchLocked(txs, results)
	ch.metrics.recordOutcomes(results)
	if optimistic {
		ch.metrics.commit.ObserveDuration(time.Since(commitStart))
		ch.metrics.conflicts.Add(uint64(conflicts))
		ch.metrics.reexecs.Observe(float64(conflicts))
	}
	return results
}

// txExec is one transaction's latest execution.
type txExec struct {
	receipt  *Receipt
	err      error
	view     *state.View // the locations it loaded are the read-set
	panicked any         // recovered panic value, if the execution panicked
}

// execOne executes tx on a fresh view of the committed DB and records the
// outcome in e, replacing the previous execution's.
func (ch *Chain) execOne(tx *Transaction, at time.Time, e *txExec) {
	*e = txExec{view: state.NewView(ch.db)}
	defer func() {
		if p := recover(); p != nil {
			e.panicked = p
		}
	}()
	e.receipt, e.err = ch.applyOn(e.view, tx, at)
}

// commitLocked is the in-order commit loop: Execute's, under either
// scheduler, and RecoverChain's replay. It walks txs in slice order. A
// position executes here, on a fresh view of the DB as every lower
// position left it, when it has no speculative execution (execs nil) or
// when its speculation's read-set Meets the locations lower positions
// wrote; so the execution it commits is the one serial order gives. Its
// block time is times[i], or, with times nil, drawn when the position
// runs. A position that was not rejected then installs its write-set
// with ApplyWrites and mines its block. A handler panic — which by then
// serial execution raises too — rolls the DB and the block list back to
// where the batch started and propagates. It returns the number of
// speculative executions it repeated.
func (ch *Chain) commitLocked(txs []*Transaction, times []time.Time, execs []txExec, results []BatchResult) (conflicts int) {
	snap, height := ch.db.Snapshot(), len(ch.blocks)
	var written *state.Written
	if execs != nil {
		written = state.NewWritten()
	}
	var own txExec
	for i, tx := range txs {
		var at time.Time
		if times != nil {
			at = times[i]
		} else {
			at = ch.cfg.Now()
		}
		e := &own
		switch {
		case execs == nil:
			tx.storePrepared(ch.cfg.ChainID)
			ch.execOne(tx, at, e)
		case execs[i].view.Meets(written):
			e = &execs[i]
			conflicts++
			ch.execOne(tx, at, e)
		default:
			e = &execs[i]
		}
		if p := e.panicked; p != nil {
			ch.db.RevertToSnapshot(snap)
			ch.blocks = ch.blocks[:height]
			panic(p)
		}
		if e.err != nil {
			results[i].Err = e.err
			continue
		}
		ws := e.view.Writes()
		ch.mineLocked(ws, e.receipt.TxHash, e.receipt, at)
		if written != nil {
			written.Add(ws)
		}
		results[i].Receipt = e.receipt
	}
	return conflicts
}

// prevalidateParallel runs the state-independent phase, sharded into
// contiguous per-worker chunks outside the chain mutex: each chunk's
// transactions are encoded into their prepared records, their senders
// recovered in one batch, and the chunk handed to the caller's
// prevalidation hook. Errors are deliberately dropped — execution
// re-derives them deterministically, keeping scheduler behaviour
// identical for bad transactions.
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
			for _, tx := range sub {
				tx.storePrepared(chainID)
			}
			recoverSenders(sub, chainID)
			if hook != nil {
				hook(sub)
			}
		}()
	}
	wg.Wait()
	ch.metrics.prevalidate.ObserveDuration(time.Since(start))
}

// recoverSenders recovers the senders of txs with the amortized batch
// recovery and installs them in the per-transaction memos, so the Sender
// calls of the hook and of execution find them there. Transactions
// already memoized are skipped; invalid ones are left for execution to
// reject with the exact per-item error.
func recoverSenders(txs []*Transaction, chainID uint64) {
	var (
		idx     []int
		digests [][32]byte
		sigs    []secp256k1.Signature
	)
	for i, tx := range txs {
		if tx.Sig.Validate() != nil {
			continue
		}
		digest, err := tx.signingHash(chainID)
		if err != nil {
			continue
		}
		if m := tx.memo.Load(); m != nil && m.digest == digest && m.sig == tx.Sig {
			continue
		}
		idx = append(idx, i)
		digests = append(digests, [32]byte(digest))
		sigs = append(sigs, tx.Sig)
	}
	if len(idx) == 0 {
		return
	}
	senderRecoveries.Add(uint64(len(idx)))
	addrs, errs := secp256k1.RecoverAddressBatch(digests, sigs)
	for j, i := range idx {
		if errs[j] != nil {
			continue
		}
		txs[i].memo.Store(&senderMemo{digest: types.Hash(digests[j]), sig: sigs[j], sender: addrs[j]})
	}
}
