package evm

import (
	"sync"
	"time"
)

// Optimistic-parallel batch execution: speculate against the pre-state,
// then intersect and repair in order.
//
// Every transaction executes once, in parallel, against its own
// state.View over the committed DB as it stood before the batch; nothing
// writes to the DB during that wave. Execute's in-order commit loop
// (commitLocked) then walks the batch in slice order, keeping the set of
// locations written by the positions before it. A transaction whose
// read-set meets that set is a conflict: it re-executes on the spot on a
// fresh view of the DB, which by then holds every lower position, so the
// re-execution is valid by construction. Its write-set is then applied
// and its block mined. A batch of n transactions costs at most 2n
// executions, whatever its conflict rate, and the conflict count is a
// function of the batch alone: no execution sees another's speculative
// write, however the wave was scheduled. The result is serially
// equivalent: receipts are byte-identical to executing the slice one
// transaction at a time. The batch's commit records then persist, in
// that order, through one append.
//
// Block timestamps are drawn once per transaction before the wave (still
// in slice order), so re-executions see a stable clock; with the default
// wall clock they differ from serial execution's commit-interleaved
// timestamps by microseconds, and with the fixed clocks used in tests
// they are identical.

// speculateLocked draws the batch's block times and runs the wave: every
// transaction executes once, in parallel, each on a fresh view of the
// pre-batch DB. A panic inside a handler is captured per transaction:
// the commit loop decides whether serial execution would hit it too.
func (ch *Chain) speculateLocked(txs []*Transaction, workers int) ([]time.Time, []txExec) {
	times := make([]time.Time, len(txs))
	for i := range times {
		times[i] = ch.cfg.Now()
	}
	execs := make([]txExec, len(txs))
	start := time.Now()
	defer func() { ch.metrics.parallel.ObserveDuration(time.Since(start)) }()
	if workers <= 1 {
		for i := range txs {
			ch.execOne(txs[i], times[i], &execs[i])
		}
		return times, execs
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
	return times, execs
}
