package evm

import (
	"sync"
	"time"

	"repro/internal/state"
)

// Optimistic-parallel batch execution: speculate against the pre-state,
// intersect and repair in order.
//
// Every transaction executes once, in parallel, against its own
// state.View over the committed DB as it stood before the batch; nothing
// writes to the DB during that wave. One pass then walks the batch in
// slice order, keeping the set of locations written by the positions
// before it. A transaction whose read-set meets that set is a conflict:
// it re-executes on the spot against the DB, which by then holds every
// lower position, so the re-execution is valid by construction. Its
// write-set is then applied and its block mined. A batch of n
// transactions costs at most 2n executions, whatever its conflict rate,
// and the conflict count is a function of the batch alone: no execution
// sees another's speculative write, however the wave was scheduled. The
// result is serially equivalent: receipts are byte-identical to executing
// the slice one transaction at a time. The batch's commit records then
// persist, in that order, through one append.
//
// Block timestamps are drawn once per transaction before the wave (still
// in slice order), so re-executions see a stable clock; with the default
// wall clock they differ from serial execution's commit-interleaved
// timestamps by microseconds, and with the fixed clocks used in tests
// they are identical.

// txExec is one transaction's latest execution.
type txExec struct {
	receipt  *Receipt
	err      error
	view     *state.View // the locations it loaded are the read-set
	panicked any         // recovered panic value, if the execution panicked
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

	times := make([]time.Time, len(txs))
	for i := range times {
		times[i] = ch.cfg.Now()
	}
	execs := make([]txExec, len(txs))

	waveStart := time.Now()
	ch.runWave(txs, times, execs, workers)
	ch.metrics.parallel.ObserveDuration(time.Since(waveStart))

	// The pass applies write-sets as it goes. A panic that serial
	// execution raises too must leave no trace, so it rolls the DB and the
	// block list back to where the batch started.
	commitStart := time.Now()
	snap, height := ch.db.Snapshot(), len(ch.blocks)
	written := state.NewWritten()
	conflicts := 0
	for i := range txs {
		e := &execs[i]
		if e.view.Meets(written) {
			conflicts++
			ch.execOne(txs[i], times[i], e)
		}
		// Position i has now read only what serial execution reads, so a
		// serial execution panics identically: propagate.
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
		ch.db.ApplyWrites(ws)
		written.Add(ws)
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
// fresh view of the pre-batch DB. A panic inside a handler is captured
// per transaction: the in-order pass decides whether serial execution
// would hit it too.
func (ch *Chain) runWave(txs []*Transaction, times []time.Time, execs []txExec, workers int) {
	if workers <= 1 {
		for i := range txs {
			ch.execOne(txs[i], times[i], &execs[i])
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
				ch.execOne(txs[i], times[i], &execs[i])
			}
		}()
	}
	for i := range txs {
		work <- i
	}
	close(work)
	wg.Wait()
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
