package evm

import (
	"sync"
	"time"

	"repro/internal/state"
)

// Optimistic-parallel batch execution (Block-STM style): speculate once,
// repair in order.
//
// Every transaction executes speculatively against its own state.View
// over a shared multi-version memory: reads resolve to the
// highest-indexed speculative write below the reader's slice position
// (falling back to committed state) and are version-tracked; writes
// buffer in the view and publish on completion. After that one parallel
// wave a single pass walks the batch in slice order: a transaction whose
// read-set was invalidated by an earlier transaction's write is a
// conflict and re-executes on the spot. Every lower position is final by
// then, so the re-execution reads only finalized versions and is valid
// by construction — a batch of n transactions costs at most 2n
// executions, whatever its conflict rate. Write-sets are then applied to
// the committed DB and blocks are mined in slice order, making the whole
// batch serially equivalent: receipts are byte-identical to executing the
// slice one transaction at a time. The batch's commit records then
// persist, in that order, through one append.
//
// Block timestamps are drawn once per transaction before the wave (still
// in slice order), so re-executions see a stable clock; with the default
// wall clock they differ from serial execution's commit-interleaved
// timestamps by microseconds, and with the fixed clocks used in tests
// they are identical.

// txExec tracks one transaction's latest speculative execution.
type txExec struct {
	receipt  *Receipt
	err      error
	reads    *state.ReadSet
	writes   *state.WriteSet
	inc      int // incarnation: number of executions so far
	panicked any // recovered panic value of the latest execution, if any
}

// executeOptimistic runs the optimistic scheduler over txs and fills
// results. Called from Execute after the prevalidation phase, without the
// chain mutex held.
func (ch *Chain) executeOptimistic(txs []*Transaction, workers int, results []BatchResult) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.rejectPoisonedLocked(results) {
		return
	}

	n := len(txs)
	times := make([]time.Time, n)
	for i := range times {
		times[i] = ch.cfg.Now()
	}

	mv := state.NewMultiVersion(ch.db)
	execs := make([]txExec, n)

	parallelStart := time.Now()
	ch.runWave(mv, txs, times, execs, workers)
	conflicts := 0
	for i := 0; i < n; i++ {
		if !mv.Validate(execs[i].reads, i) {
			conflicts++
			ch.execOne(mv, txs, times, execs, i)
		}
		// Position i has now read only finalized state, so a serial
		// execution panics identically: propagate.
		if p := execs[i].panicked; p != nil {
			panic(p)
		}
	}
	ch.metrics.parallel.ObserveDuration(time.Since(parallelStart))

	// Commit phase: apply validated write-sets to the committed DB and
	// mine in slice order, then persist the whole batch at once.
	commitStart := time.Now()
	for i := 0; i < n; i++ {
		e := &execs[i]
		if e.err != nil {
			results[i].Err = e.err
			continue
		}
		ch.db.ApplyWrites(e.writes)
		ch.mineLocked(e.receipt.TxHash, e.receipt, times[i])
		results[i].Receipt = e.receipt
	}
	ch.persistBatchLocked(txs, results)
	ch.metrics.recordOutcomes(results)
	ch.metrics.commit.ObserveDuration(time.Since(commitStart))
	ch.metrics.conflicts.Add(uint64(conflicts))
	ch.metrics.reexecs.Observe(float64(conflicts))
}

// runWave executes every transaction once, in parallel, each against a
// fresh view, and publishes the resulting write-sets. A panic inside a
// handler is captured per transaction (and its write-set withdrawn): it
// may stem from a stale speculative read, so the repair pass decides
// whether serial execution would hit it too.
func (ch *Chain) runWave(mv *state.MultiVersion, txs []*Transaction, times []time.Time, execs []txExec, workers int) {
	if workers <= 1 {
		for i := range txs {
			ch.execOne(mv, txs, times, execs, i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ch.execOne(mv, txs, times, execs, i)
			}
		}()
	}
	for i := range txs {
		work <- i
	}
	close(work)
	wg.Wait()
}

// execOne runs one speculative execution of txs[i] and publishes its
// write-set under the next incarnation number.
func (ch *Chain) execOne(mv *state.MultiVersion, txs []*Transaction, times []time.Time, execs []txExec, i int) {
	e := &execs[i]
	e.inc++
	view := state.NewView(mv, i)
	e.panicked = nil
	func() {
		defer func() {
			if p := recover(); p != nil {
				e.panicked = p
				e.receipt, e.err = nil, nil
			}
		}()
		e.receipt, e.err = ch.applyOn(view, txs[i], times[i])
	}()
	prev := e.writes
	if e.panicked != nil {
		// A partial write-set must never be visible to other
		// transactions: withdraw everything this position published.
		e.writes = nil
	} else {
		e.writes = view.Writes()
	}
	e.reads = view.Reads()
	mv.Publish(i, e.inc, e.writes, prev)
}
