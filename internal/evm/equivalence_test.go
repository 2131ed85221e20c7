package evm_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/gas"
	"repro/internal/metrics"
	"repro/internal/secp256k1"
	"repro/internal/types"
	"repro/internal/wallet"
)

// The optimistic scheduler's contract is serial equivalence: for any
// batch — conflict-free, conflict-saturated, or poisoned with rejects and
// reverts — receipts, state, block heights, and outcome metrics must be
// identical to executing the slice one transaction at a time. The
// property test below drives seeded random conflict-heavy batches through
// a serial oracle chain and an optimistic chain and diffs everything.

const equivalenceSenders = 6

// equivPair is a serial-oracle chain and an optimistic chain built
// identically: same fixed clock instant, same funded senders, same
// deployed counter contracts, separate metrics registries. The batches
// hit contract; blank only ever receives zero stores, so it never holds
// storage.
type equivPair struct {
	serial, optimistic *evm.Chain
	serialReg, optReg  *metrics.Registry
	contract, blank    types.Address
	keys               []*secp256k1.PrivateKey
}

// newEquivCounter is the counter contract plus zero(slot), which writes
// a word into the given slot and then clears it, so the transaction's
// net write is a zero word.
func newEquivCounter() *evm.Contract {
	c := newCounter()
	c.MustAddMethod(evm.Method{
		Name:       "zero",
		Params:     []any{uint64(0)},
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			slot := evm.SlotN(call.Arg(0).(uint64))
			if err := call.StoreUint(gas.CatApp, slot, 1); err != nil {
				return nil, err
			}
			return nil, call.StoreUint(gas.CatApp, slot, 0)
		},
	})
	return c
}

func newEquivPair(t testing.TB) *equivPair {
	t.Helper()
	p := &equivPair{
		serialReg: metrics.NewRegistry(),
		optReg:    metrics.NewRegistry(),
	}
	clock := evmtest.NewClock()
	build := func(reg *metrics.Registry) *evm.Chain {
		cfg := evm.DefaultConfig()
		cfg.Now = clock.Now
		cfg.Metrics = reg
		return evm.NewChain(cfg)
	}
	p.serial = build(p.serialReg)
	p.optimistic = build(p.optReg)

	for i := 0; i < equivalenceSenders; i++ {
		key := secp256k1.PrivateKeyFromSeed([]byte{byte('e'), byte(i)})
		p.keys = append(p.keys, key)
		p.serial.Fund(key.Address(), evmtest.Ether(1000))
		p.optimistic.Fund(key.Address(), evmtest.Ether(1000))
	}
	owner := p.keys[0].Address()
	deploy := func() types.Address {
		addrS, _, err := p.serial.Deploy(owner, newEquivCounter())
		if err != nil {
			t.Fatal(err)
		}
		addrO, _, err := p.optimistic.Deploy(owner, newEquivCounter())
		if err != nil {
			t.Fatal(err)
		}
		if addrS != addrO {
			t.Fatalf("contract addresses diverge before any transaction: %s vs %s", addrS, addrO)
		}
		return addrS
	}
	p.contract = deploy()
	p.blank = deploy()
	return p
}

// buildBatch generates one seeded conflict-heavy batch: every contract
// call hits the counter's hot slot 0, every sender appears several times
// (nonce chains), a fixed EOA receives everyone's transfers (hot
// account), and a sprinkle of poisoned transactions (bad nonces,
// overdrafts, missing signatures) exercises the rejection paths.
func (p *equivPair) buildBatch(t testing.TB, rng *rand.Rand) []*evm.Transaction {
	t.Helper()
	hotEOA := types.BytesToAddress([]byte("hot destination"))
	nonces := make([]uint64, len(p.keys))
	for i, key := range p.keys {
		nonces[i] = p.serial.NonceOf(key.Address())
	}

	n := 8 + rng.Intn(9) // 8..16
	txs := make([]*evm.Transaction, 0, n)
	for len(txs) < n {
		s := rng.Intn(len(p.keys))
		tx := &evm.Transaction{
			Nonce:    nonces[s],
			To:       p.contract,
			Value:    new(big.Int),
			GasLimit: wallet.DefaultGasLimit,
			GasPrice: p.serial.Config().Price.Wei(1),
		}
		sign, consume := true, true
		switch roll := rng.Intn(100); {
		case roll < 35: // hot-slot counter bump
			tx.Method = "increment"
		case roll < 40: // zero store: hot slot, fresh slot, or storage-less contract
			tx.Method = "zero"
			tx.Args = []any{uint64(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				tx.To = p.blank
			}
		case roll < 55: // nested invokes on the same hot slot
			tx.Method = "bumpBy"
			tx.Args = []any{uint64(1 + rng.Intn(3))}
		case roll < 65: // revert after a store: the write must vanish
			tx.Method = "explode"
		case roll < 75: // payable: moves value into the contract account
			tx.Method = "deposit"
			tx.Value = big.NewInt(int64(1 + rng.Intn(100)))
		case roll < 85: // plain transfer, everyone credits the same EOA
			tx.To = hotEOA
			tx.Method = ""
			tx.Value = big.NewInt(int64(1 + rng.Intn(1000)))
		case roll < 90: // nonce too high: rejected, nonce not consumed
			tx.Method = "increment"
			tx.Nonce = nonces[s] + 3 + uint64(rng.Intn(4))
			consume = false
		case roll < 95: // overdraft: rejected before executing
			tx.To = hotEOA
			tx.Method = ""
			tx.Value = new(big.Int).Add(evmtest.Ether(2000), big.NewInt(1))
			consume = false
		default: // unsigned: rejected with ErrBadTxSignature
			tx.Method = "increment"
			sign, consume = false, false
		}
		if sign {
			if err := evm.SignTx(tx, p.keys[s], p.serial.Config().ChainID); err != nil {
				t.Fatal(err)
			}
		}
		if consume {
			nonces[s]++
		}
		txs = append(txs, tx)
	}
	return txs
}

// resultFingerprint flattens a BatchResult into a comparable string
// covering every receipt field (including the execution trace — traces
// carry no wall-clock data, so they must match event for event).
func resultFingerprint(res evm.BatchResult) string {
	var b strings.Builder
	if res.Err != nil {
		fmt.Fprintf(&b, "err=%v;", res.Err)
	}
	r := res.Receipt
	if r == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "status=%v gas=%d fee=%.9f block=%d hash=%s return=%v",
		r.Status, r.GasUsed, r.FeeUSD, r.BlockNumber, r.TxHash, r.Return)
	if r.Err != nil {
		fmt.Fprintf(&b, " rerr=%v", r.Err)
	}
	cats := make([]string, 0, len(r.GasByCategory))
	for c, g := range r.GasByCategory {
		cats = append(cats, fmt.Sprintf("%v=%d", c, g))
	}
	sort.Strings(cats)
	fmt.Fprintf(&b, " cats=%v", cats)
	if r.Trace != nil {
		for _, ev := range r.Trace.Events {
			fmt.Fprintf(&b, "\n  %+v", ev)
		}
	}
	return b.String()
}

// txsTotalLines extracts the evm_txs_total samples from a registry's
// Prometheus rendering (outcome counters must match across schedulers;
// timing histograms legitimately differ).
func txsTotalLines(t testing.TB, reg *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, evm.MetricTxsTotal+"{") {
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// assertChainsEquivalent diffs the committed world state, heights, and
// outcome counters of the pair.
func (p *equivPair) assertChainsEquivalent(t testing.TB, label string) {
	t.Helper()
	ds, err := p.serial.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	do, err := p.optimistic.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if ds != do {
		t.Fatalf("%s: state digests diverge: serial %s, optimistic %s", label, ds, do)
	}
	if hs, ho := p.serial.Height(), p.optimistic.Height(); hs != ho {
		t.Fatalf("%s: heights diverge: serial %d, optimistic %d", label, hs, ho)
	}
	if ls, lo := txsTotalLines(t, p.serialReg), txsTotalLines(t, p.optReg); ls != lo {
		t.Fatalf("%s: outcome counters diverge:\nserial:\n%s\noptimistic:\n%s", label, ls, lo)
	}
}

func equivalenceIterations() int {
	if raceEnabled {
		return 200 // the race scheduler is ~10× slower; keep CI bounded
	}
	return 1000
}

// TestOptimisticSerialEquivalenceProperty is the headline property test:
// 1000 seeded iterations (200 under -race) of conflict-heavy batches,
// each executed on a serial oracle and an optimistic chain — at 1 worker
// (a sequential wave), 2, and 8 (more lanes than cores) in turn — with
// receipts compared field-by-field and state/height/metrics diffed after
// every batch.
func TestOptimisticSerialEquivalenceProperty(t *testing.T) {
	iterations := equivalenceIterations()
	if testing.Short() {
		iterations = 50
	}
	// A handful of long-lived pairs keeps per-iteration cost at one batch
	// (not one chain construction) while still resetting state often
	// enough that early-iteration bugs do not hide behind deep history.
	const pairLifetime = 100
	var p *equivPair
	for iter := 0; iter < iterations; iter++ {
		if iter%pairLifetime == 0 {
			p = newEquivPair(t)
		}
		rng := rand.New(rand.NewSource(int64(0xC0FFEE + iter)))
		txs := p.buildBatch(t, rng)

		serialRes := p.serial.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerSerial})
		workers := [...]int{1, 2, 8}[iter%3]
		optRes := p.optimistic.Execute(txs, evm.ExecOptions{
			Scheduler: evm.SchedulerOptimistic,
			Workers:   workers,
		})

		for i := range txs {
			sf, of := resultFingerprint(serialRes[i]), resultFingerprint(optRes[i])
			if sf != of {
				t.Fatalf("iter %d tx %d (workers=%d): receipts diverge\nserial:     %s\noptimistic: %s",
					iter, i, workers, sf, of)
			}
		}
		p.assertChainsEquivalent(t, fmt.Sprintf("iter %d", iter))
	}
}

// TestOptimisticSchedulerRaceStress hammers one chain with large
// conflict-saturated optimistic batches at high worker counts — its value
// is under -race, where any unsynchronized access between scheduler
// workers reading the committed state and the commit phase trips the
// detector. A serial oracle cross-checks the final state.
func TestOptimisticSchedulerRaceStress(t *testing.T) {
	p := newEquivPair(t)
	rng := rand.New(rand.NewSource(0xBADC0DE))
	batches := 20
	if testing.Short() {
		batches = 5
	}
	for b := 0; b < batches; b++ {
		// All six senders pile onto the hot slot: 64 txs, ~10 per sender,
		// guaranteeing dense read/write conflicts and nonce chains.
		var txs []*evm.Transaction
		nonces := make([]uint64, len(p.keys))
		for i, key := range p.keys {
			nonces[i] = p.serial.NonceOf(key.Address())
		}
		for len(txs) < 64 {
			s := rng.Intn(len(p.keys))
			tx := &evm.Transaction{
				Nonce:    nonces[s],
				To:       p.contract,
				Value:    new(big.Int),
				GasLimit: wallet.DefaultGasLimit,
				GasPrice: p.serial.Config().Price.Wei(1),
				Method:   "increment",
			}
			if err := evm.SignTx(tx, p.keys[s], p.serial.Config().ChainID); err != nil {
				t.Fatal(err)
			}
			nonces[s]++
			txs = append(txs, tx)
		}
		serialRes := p.serial.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerSerial})
		optRes := p.optimistic.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 8})
		for i := range txs {
			if sf, of := resultFingerprint(serialRes[i]), resultFingerprint(optRes[i]); sf != of {
				t.Fatalf("batch %d tx %d: receipts diverge\nserial:     %s\noptimistic: %s", b, i, sf, of)
			}
		}
	}
	p.assertChainsEquivalent(t, "after stress")
}

// colliderChain is a chain carrying a Collider contract plus one signed
// collide(i) call per party i, each from its own sender. The handler
// loads the shared slot 0 and then, with barrier set, blocks on a
// one-shot barrier until every party's first execution has loaded it
// too, so the whole wave runs at once; later executions (the repair
// pass) pass straight through. The barrier needs a worker per party;
// serial oracles and one-worker waves run without it. After
// it the handler hands (i, loaded value) to onLoad, which
// may panic, and stores value+1.
type colliderChain struct {
	chain *evm.Chain
	reg   *metrics.Registry
	txs   []*evm.Transaction
	calls atomic.Int64 // handler invocations
}

func newColliderChain(t testing.TB, parties int, barrier bool, onLoad func(party, v uint64)) *colliderChain {
	t.Helper()
	c := &colliderChain{reg: metrics.NewRegistry()}
	cfg := evm.DefaultConfig()
	cfg.Now = evmtest.NewClock().Now
	cfg.Metrics = c.reg
	c.chain = evm.NewChain(cfg)

	keys := make([]*secp256k1.PrivateKey, parties)
	for i := range keys {
		keys[i] = secp256k1.PrivateKeyFromSeed([]byte{byte('c'), byte(i)})
		c.chain.Fund(keys[i].Address(), evmtest.Ether(100))
	}

	var (
		barrierMu sync.Mutex
		arrived   int
		release   = make(chan struct{})
	)
	if !barrier {
		close(release)
	}
	contract := evm.NewContract("Collider")
	contract.MustAddMethod(evm.Method{
		Name:       "collide",
		Params:     []any{uint64(0)},
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			c.calls.Add(1)
			v, err := call.LoadUint(gas.CatApp, evm.SlotN(0))
			if err != nil {
				return nil, err
			}
			barrierMu.Lock()
			if arrived < parties {
				arrived++
				if barrier && arrived == parties {
					close(release)
				}
			}
			barrierMu.Unlock()
			<-release
			if onLoad != nil {
				onLoad(call.Arg(0).(uint64), v)
			}
			if err := call.StoreUint(gas.CatApp, evm.SlotN(0), v+1); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	addr, _, err := c.chain.Deploy(keys[0].Address(), contract)
	if err != nil {
		t.Fatal(err)
	}

	c.txs = make([]*evm.Transaction, parties)
	for i, key := range keys {
		tx := &evm.Transaction{
			Nonce:    c.chain.NonceOf(key.Address()),
			To:       addr,
			Value:    new(big.Int),
			GasLimit: wallet.DefaultGasLimit,
			GasPrice: c.chain.Config().Price.Wei(1),
			Method:   "collide",
			Args:     []any{uint64(i)},
		}
		if err := evm.SignTx(tx, key, c.chain.Config().ChainID); err != nil {
			t.Fatal(err)
		}
		c.txs[i] = tx
	}
	return c
}

// seriesValue reads one unlabeled sample from reg's Prometheus rendering.
func seriesValue(t testing.TB, reg *metrics.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %f", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from Prometheus rendering", name)
	return 0
}

// TestOptimisticConflictMetrics pins the scheduler's cost on a fully
// conflicting batch: every party but the first is a conflict, each
// conflict is repaired by exactly one re-execution, and the handler
// therefore runs exactly 2·parties−1 times.
func TestOptimisticConflictMetrics(t *testing.T) {
	const parties = 6
	c := newColliderChain(t, parties, true, nil)
	for i, res := range c.chain.Execute(c.txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: parties}) {
		if res.Err != nil || !res.Receipt.Status {
			t.Fatalf("tx %d failed: %v / %+v", i, res.Err, res.Receipt)
		}
	}
	if got := seriesValue(t, c.reg, evm.MetricExecConflicts); got != parties-1 {
		t.Errorf("%s = %v, want %d", evm.MetricExecConflicts, got, parties-1)
	}
	if got := seriesValue(t, c.reg, evm.MetricExecReexecutions+"_sum"); got != parties-1 {
		t.Errorf("%s_sum = %v, want %d", evm.MetricExecReexecutions, got, parties-1)
	}
	if got := c.calls.Load(); got != 2*parties-1 {
		t.Errorf("handler ran %d times, want %d", got, 2*parties-1)
	}
	if got := seriesValue(t, c.reg, evm.MetricExecParallelSecs+"_count"); got != 1 {
		t.Errorf("%s_count = %v, want 1", evm.MetricExecParallelSecs, got)
	}
}

// TestOptimisticNonceChainBoundedReexecution runs the worst shape for a
// wave scheduler — one sender, so every transaction depends on the one
// before it — and checks the 2n execution bound: at most one repair per
// position, whatever the wave observed.
func TestOptimisticNonceChainBoundedReexecution(t *testing.T) {
	const n = 32
	reg := metrics.NewRegistry()
	cfg := evm.DefaultConfig()
	cfg.Now = evmtest.NewClock().Now
	cfg.Metrics = reg
	ch := evm.NewChain(cfg)
	key := secp256k1.PrivateKeyFromSeed([]byte("nonce chain"))
	ch.Fund(key.Address(), evmtest.Ether(100))
	addr, _, err := ch.Deploy(key.Address(), newCounter())
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]*evm.Transaction, n)
	for i := range txs {
		txs[i] = buildIncrement(t, ch, key, addr, ch.NonceOf(key.Address())+uint64(i))
	}
	for i, res := range ch.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 4}) {
		if res.Err != nil || !res.Receipt.Status {
			t.Fatalf("tx %d failed: %v / %+v", i, res.Err, res.Receipt)
		}
		if got := res.Receipt.Return[0].(uint64); got != uint64(i+1) {
			t.Fatalf("tx %d returned %d, want %d", i, got, i+1)
		}
	}
	if got := seriesValue(t, reg, evm.MetricExecReexecutions+"_sum"); got > n {
		t.Errorf("%v re-executions for a %d-long chain: more than 2n executions", got, n)
	}
}

// TestOptimisticConflictsAreDeterministic pins conflict counts as a
// function of the batch. Every wave execution reads the pre-batch state,
// so however the workers interleave — one worker included — the 6-party
// collider conflicts at every party but the first, and a single sender's
// 32-long nonce chain at every link but the first. Each run is undone by
// a reorg, so the same signed batch runs again.
func TestOptimisticConflictsAreDeterministic(t *testing.T) {
	const parties, links, runs = 6, 32, 20
	collider := newColliderChain(t, parties, false, nil)

	reg := metrics.NewRegistry()
	cfg := evm.DefaultConfig()
	cfg.Now = evmtest.NewClock().Now
	cfg.Metrics = reg
	nonceChain := evm.NewChain(cfg)
	key := secp256k1.PrivateKeyFromSeed([]byte("nonce chain"))
	nonceChain.Fund(key.Address(), evmtest.Ether(100))
	addr, _, err := nonceChain.Deploy(key.Address(), newCounter())
	if err != nil {
		t.Fatal(err)
	}
	chainTxs := make([]*evm.Transaction, links)
	for i := range chainTxs {
		chainTxs[i] = buildIncrement(t, nonceChain, key, addr, nonceChain.NonceOf(key.Address())+uint64(i))
	}

	shapes := []struct {
		name  string
		chain *evm.Chain
		reg   *metrics.Registry
		txs   []*evm.Transaction
		want  float64
	}{
		{"collider", collider.chain, collider.reg, collider.txs, parties - 1},
		{"nonce chain", nonceChain, reg, chainTxs, links - 1},
	}
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < runs; run++ {
			for _, sh := range shapes {
				height := sh.chain.Height()
				before := seriesValue(t, sh.reg, evm.MetricExecConflicts)
				for i, res := range sh.chain.Execute(sh.txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: workers}) {
					if res.Err != nil || !res.Receipt.Status {
						t.Fatalf("%s workers=%d run %d tx %d failed: %v / %+v", sh.name, workers, run, i, res.Err, res.Receipt)
					}
				}
				if got := seriesValue(t, sh.reg, evm.MetricExecConflicts) - before; got != sh.want {
					t.Fatalf("%s workers=%d run %d: %v conflicts, want %v", sh.name, workers, run, got, sh.want)
				}
				if err := sh.chain.Reorg(height); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// A handler panic raised by a stale speculative read is not a real
// panic: serial execution never reaches it. Every party but the first
// panics in the wave (the barrier makes all of them load the base
// value), the repair pass re-executes them against final state, and the
// batch completes with receipts identical to the serial oracle's.
func TestOptimisticStalePanicDoesNotSurface(t *testing.T) {
	const parties = 6
	panicIfStale := func(party, v uint64) {
		if v != party {
			panic(fmt.Sprintf("party %d loaded stale value %d", party, v))
		}
	}
	serial := newColliderChain(t, parties, false, panicIfStale)
	opt := newColliderChain(t, parties, true, panicIfStale)

	serialRes := serial.chain.Execute(serial.txs, evm.ExecOptions{Scheduler: evm.SchedulerSerial})
	optRes := opt.chain.Execute(opt.txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: parties})
	for i := range serialRes {
		if sf, of := resultFingerprint(serialRes[i]), resultFingerprint(optRes[i]); sf != of {
			t.Fatalf("tx %d: receipts diverge\nserial:     %s\noptimistic: %s", i, sf, of)
		}
		if !optRes[i].Receipt.Status {
			t.Fatalf("tx %d reverted: %v", i, optRes[i].Receipt.Err)
		}
	}
	if got := opt.calls.Load(); got != 2*parties-1 {
		t.Errorf("handler ran %d times, want %d (every loser panicked once, then re-ran)", got, 2*parties-1)
	}
	ds, err := serial.chain.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	do, err := opt.chain.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if ds != do {
		t.Errorf("state digests diverge: serial %s, optimistic %s", ds, do)
	}
}

// A handler panic that serial execution would hit too propagates out of
// Execute under either scheduler — for the optimistic one, whether the
// panicking position validated as first executed (party 0) or only
// panicked again when repaired (party 3) — and leaves the chain usable:
// the mutex is released, the height is unchanged and no write of the
// aborted batch is visible, neither of the positions below the panic nor
// the panicking transaction's own nonce and fee.
func TestOptimisticDeterministicPanicPropagates(t *testing.T) {
	const parties = 6
	for _, sched := range []evm.Scheduler{evm.SchedulerSerial, evm.SchedulerOptimistic} {
		for _, bad := range []uint64{0, 3} {
			// The barrier holds every party until all have loaded, which
			// only a parallel wave can satisfy.
			c := newColliderChain(t, parties, sched == evm.SchedulerOptimistic, func(party, _ uint64) {
				if party == bad {
					panic("boom")
				}
			})
			before, err := c.chain.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			height := c.chain.Height()
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				c.chain.Execute(c.txs, evm.ExecOptions{Scheduler: sched, Workers: parties})
			}()
			if recovered != "boom" {
				t.Fatalf("%v, party %d: Execute recovered %v, want the handler's panic", sched, bad, recovered)
			}
			if got := c.chain.Height(); got != height {
				t.Errorf("%v, party %d: aborted batch moved the height %d → %d", sched, bad, height, got)
			}
			after, err := c.chain.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			if before != after {
				t.Errorf("%v, party %d: aborted batch changed state: %s → %s", sched, bad, before, after)
			}
			r, err := c.chain.Apply(c.txs[1])
			if err != nil || !r.Status {
				t.Errorf("%v, party %d: Apply after the aborted batch: err=%v receipt=%+v", sched, bad, err, r)
			}
		}
	}
}

// TestOptimisticTimestampsAreSliceOrdered documents the timestamp
// contract: with a fixed clock the optimistic scheduler's block times are
// identical to serial execution's.
func TestOptimisticTimestampsAreSliceOrdered(t *testing.T) {
	p := newEquivPair(t)
	rng := rand.New(rand.NewSource(7))
	txs := p.buildBatch(t, rng)
	p.serial.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerSerial})
	p.optimistic.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 4})
	hs := p.serial.Height()
	for n := uint64(1); n <= hs; n++ {
		bs, ok1 := p.serial.BlockByNumber(n)
		bo, ok2 := p.optimistic.BlockByNumber(n)
		if !ok1 || !ok2 {
			t.Fatalf("block %d missing (serial=%v optimistic=%v)", n, ok1, ok2)
		}
		if !bs.Time.Equal(bo.Time) {
			t.Errorf("block %d: times diverge: %v vs %v", n, bs.Time, bo.Time)
		}
	}
}
