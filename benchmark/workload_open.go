package main

import (
	"fmt"
	"math/big"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/store"
)

// openWorkload is guarded-open: Poisson arrivals at a fixed rate, each one
// the whole path of a guarded transaction. A dispatcher releases ops on
// schedule whatever the system does; acquisition workers fetch a one-time
// argument token over HTTP and sign the tx; one block producer, whenever
// idle, takes up to 64 pending txs into Chain.Execute on a file store. An
// op ends when its BatchResult returns, and its latency counts from the
// moment it was due.
type openWorkload struct {
	ws    *walletSet
	rules *rules.RuleSet
	key   *secp256k1.PrivateKey
	stack *tsStack
	cs    *chainStack
	cl    closers

	counterBackend *tracedBackend
	ops            []*openOp
	warm           int // ops[:warm] are warm-up arrivals

	// walletMu[w] orders nonce assignment, signing and queueing of wallet
	// w's txs, so a hot wallet's txs reach the producer as a nonce chain.
	walletMu []sync.Mutex
	nonces   []uint64

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*openOp
	closed  bool

	backlog atomic.Int64
	blocks  []int     // txs per Execute call, by block id
	order   []*openOp // every executed op, in commit order
}

// openOp is one arrival and everything that happened to it. Times are ns
// since the loop's start.
type openOp struct {
	i        uint64
	rank     int
	wallet   uint16
	req      *core.Request
	due      int64
	measured bool

	sent, pickup, tokenDone, signDone, execStart, execEnd int64

	token  core.Token
	tx     *evm.Transaction
	denied bool // the expected denial
	failed string
	out    txOutcome
}

func (ow *openWorkload) build(rc *runCtx, dir string) error {
	ow.ws = rc.ws
	ow.rules = benchRules(rc.g, ow.ws)
	ow.key = secp256k1.PrivateKeyFromSeed([]byte("smacs benchmark token service"))
	cs, err := newChainStack(dir, ow.ws, ow.key, rc.reg, rc.tr, &ow.cl)
	if err != nil {
		return err
	}
	ow.cs = cs
	backend, tb, err := openFile(filepath.Join(dir, "counter"), rc.reg, rc.tr, spAppendCounter, &ow.cl)
	if err != nil {
		return err
	}
	ow.counterBackend = tb
	counter, err := store.OpenCounter(backend, 0)
	if err != nil {
		return err
	}
	ow.stack, err = newTSStack(tsConfig{key: ow.key, contract: cs.target, rules: ow.rules,
		underlying: counter, workers: rc.workers, reg: rc.reg, tr: rc.tr}, &ow.cl)
	if err != nil {
		return err
	}
	ow.cond = sync.NewCond(&ow.mu)
	ow.walletMu = make([]sync.Mutex, rc.wallets)
	ow.nonces = make([]uint64, rc.wallets)
	ow.generate(rc)
	return nil
}

// generate lays out every arrival of the run: warm-up arrivals first, each
// part on its own clock.
func (ow *openWorkload) generate(rc *runCtx) {
	warmSec := float64(warmupMax)
	if rc.smoke {
		warmSec = 0.2
	}
	i := uint64(0)
	for part, seconds := range []float64{warmSec, rc.seconds} {
		for _, at := range rc.g.arrivals(i, openRate, seconds) {
			rank := rc.g.rank(i)
			w := rc.g.walletAt[rank]
			arg := rc.g.u64(streamArg, i)
			ow.ops = append(ow.ops, &openOp{
				i: i, rank: rank, wallet: w, due: int64(at * 1e9), measured: part == 1,
				req: &core.Request{Type: core.ArgumentType, Contract: ow.cs.target, Sender: ow.ws.addrs[w],
					Method: "buy", OneTime: true,
					Args: []core.NamedArg{
						{Name: "recipient", Value: ow.ws.addrs[arg>>8%uint64(len(ow.ws.addrs))]},
						{Name: "amount", Value: big.NewInt(int64(arg%maxAmount) + 1)},
					}},
			})
			i++
		}
		if part == 0 {
			ow.warm = len(ow.ops)
		}
	}
}

func (ow *openWorkload) close() error { return ow.cl.close() }

func (ow *openWorkload) warmup(rc *runCtx) error {
	ow.loop(rc, ow.ops[:ow.warm], ow.acquire)
	return nil
}

func (ow *openWorkload) measure(rc *runCtx) error {
	stop, sampled := make(chan struct{}), make(chan struct{})
	rc.m.mark()
	go func() { defer close(sampled); rc.m.every(stop) }()
	ow.loop(rc, ow.ops[ow.warm:], ow.acquire)
	close(stop)
	<-sampled
	return nil
}

// loop offers ops on their schedule, whatever the system under test does
// with them, and returns when the last has ended. acquire is the wallet's
// half of an op; it hands a signed tx to the producer or finishes the op.
func (ow *openWorkload) loop(rc *runCtx, ops []*openOp, acquire func(rc *runCtx, w int, op *openOp, now func() int64)) {
	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	// due never blocks the dispatcher: it holds every op of the loop.
	due := make(chan *openOp, len(ops))
	var workers, producer sync.WaitGroup
	for w := 0; w < rc.workers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for op := range due {
				acquire(rc, w, op, now)
			}
		}(w)
	}
	producer.Add(1)
	go func() {
		defer producer.Done()
		ow.produce(rc, now)
	}()

	for k, op := range ops {
		if d := op.due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		op.sent = now()
		if n := ow.backlog.Add(1); op.measured {
			half := 2 * k / len(ops)
			rc.backlogMax[half] = max(rc.backlogMax[half], n)
		}
		due <- op
	}
	close(due)
	workers.Wait()
	ow.mu.Lock()
	ow.closed = true
	ow.cond.Broadcast()
	ow.mu.Unlock()
	producer.Wait()
	ow.mu.Lock()
	ow.closed = false
	ow.mu.Unlock()
}

// finish ends an op that ran no further than the token stage, or a
// committed one.
func (ow *openWorkload) finish(rc *runCtx, op *openOp) {
	ow.backlog.Add(-1)
	if op.measured && op.failed == "" {
		rc.m.ops.Add(1)
	}
}

// acquire is the wallet's half of an op: prove possession, fetch the
// token, build and sign the tx, hand it to the producer.
func (ow *openWorkload) acquire(rc *runCtx, w int, op *openOp, now func() int64) {
	op.pickup = now()
	id := int64(op.i)
	key := ow.ws.keys[op.wallet]
	s := rc.tr.begin()
	if err := core.SignRequest(op.req, key); err != nil {
		panic(err) // a deterministic key cannot fail to sign
	}
	rc.tr.end(spSignRequest, id, s)
	ow.stack.curOp[w].Store(id)
	s = rc.tr.begin()
	tk, err := ow.stack.clients[w].RequestToken(op.req)
	rc.tr.end(spRoundtrip, id, s)
	op.tokenDone = now()
	switch {
	case !allowed(op.rank) && err != nil && strings.Contains(err.Error(), rules.ErrDenied.Error()):
		op.denied = true
		ow.finish(rc, op)
		return
	case !allowed(op.rank) || err != nil:
		op.failed = fmt.Sprintf("token request: %v", err)
		ow.finish(rc, op)
		return
	}
	op.token = tk

	ow.walletMu[op.wallet].Lock()
	defer ow.walletMu[op.wallet].Unlock()
	s = rc.tr.begin()
	op.tx, err = ow.cs.newTx(key, ow.nonces[op.wallet], "buy", op.req.ArgValues(), tk)
	rc.tr.end(spBuildTx, id, s)
	if err != nil {
		op.failed = fmt.Sprintf("sign tx: %v", err)
		ow.finish(rc, op)
		return
	}
	ow.nonces[op.wallet]++
	op.signDone = now()
	ow.mu.Lock()
	ow.pending = append(ow.pending, op)
	ow.cond.Signal()
	ow.mu.Unlock()
}

// produce is the single block producer.
func (ow *openWorkload) produce(rc *runCtx, now func() int64) {
	for {
		ow.mu.Lock()
		for len(ow.pending) == 0 && !ow.closed {
			ow.cond.Wait()
		}
		if len(ow.pending) == 0 {
			ow.mu.Unlock()
			return
		}
		n := min(len(ow.pending), blockTxs)
		batch := append([]*openOp(nil), ow.pending[:n]...)
		ow.pending = ow.pending[n:]
		ow.mu.Unlock()

		txs := make([]*evm.Transaction, n)
		for k, op := range batch {
			txs[k] = op.tx
		}
		id := int64(len(ow.blocks))
		ow.blocks = append(ow.blocks, n)
		ow.order = append(ow.order, batch...)
		s := rc.tr.begin()
		execStart := now()
		results := ow.cs.execute(txs)
		execEnd := now()
		rc.tr.end(spExecute, id, s)
		for k, op := range batch {
			op.execStart, op.execEnd = execStart, execEnd
			op.out = outcomeOf(results[k])
			if !op.out.ok {
				op.failed = fmt.Sprintf("tx not accepted: %v", op.out.err)
			}
			ow.finish(rc, op)
		}
	}
}

func (ow *openWorkload) check(rc *runCtx) error {
	var tokens []issuedToken
	var committed, denied, measuredDenied int
	var gasSum float64
	for _, op := range ow.ops {
		if op.measured {
			rc.attempted++
		}
		switch {
		case op.failed != "":
			if op.measured {
				rc.failed++
			}
			rc.notes["first_failure"] = fmt.Sprintf("op %d: %s", op.i, op.failed)
			continue
		case op.denied:
			denied++
			if op.measured {
				measuredDenied++
			}
		default:
			committed++
			tokens = append(tokens, issuedToken{req: op.req, raw: op.token.Encode()})
			gasSum += float64(op.out.gasUsed)
		}
		if !op.measured {
			continue
		}
		end := op.execEnd
		if op.denied {
			end = op.tokenDone
		}
		ms := float64(end-op.due) / 1e6
		if ms <= rc.spec.LimitMs {
			rc.withinLim++
		}
		rc.latenessMs = append(rc.latenessMs, float64(op.sent-op.due)/1e6)
		if !op.denied {
			rc.lat = append(rc.lat, ms)
		}
	}
	// What a tx finds in storage depends on the txs committed before it.
	var audit gasAudit
	var model storageModel
	for _, op := range ow.order {
		if !op.out.ok {
			continue
		}
		meta := txMeta{wallet: op.wallet, req: op.req, index: op.token.Index}
		if err := audit.add(gasClass(op.req, model.variant(meta)), op.out.execGas); err != nil {
			return err
		}
	}
	rc.notes["gas_classes"] = audit.seen
	rc.notes["mean_gas"] = gasSum / float64(max(committed, 1))
	rc.notes["arrivals"] = len(ow.ops) - ow.warm
	rc.notes["denied_ops"] = measuredDenied
	if rc.failed > 0 {
		return fmt.Errorf("%d of %d ops had an unexpected outcome (%v)", rc.failed, rc.attempted, rc.notes["first_failure"])
	}
	// A second of arrivals still in flight means the system fell behind the
	// offered rate: its latencies then measure the run's length, not the
	// system.
	if rc.backlogMax[1] > openRate {
		return fmt.Errorf("backlog reached %d ops: the system cannot hold %d ops/s", rc.backlogMax[1], openRate)
	}
	if exp, err := loadExpected(); err != nil {
		return err
	} else if want, ok := exp.OpenArrivals[fmt.Sprint(rc.seconds)]; ok && rc.seed == exp.DefaultSeed && !rc.smoke {
		if got := [2]int{len(ow.ops) - ow.warm, measuredDenied}; got != want {
			return fmt.Errorf("default seed generated %v arrivals/denials, expected.json pins %v", got, want)
		}
	}
	if _, rejected := ow.stack.svc.Stats(); rejected != uint64(denied) {
		return fmt.Errorf("service rejected %d requests, inputs demand %d", rejected, denied)
	}
	if err := checkTokens(tokens, ow.key.Address(), true); err != nil {
		return err
	}
	if err := audit.compare(); err != nil {
		return err
	}
	if err := checkContract(ow.cs, ow.ws, true, committed, nil); err != nil {
		return err
	}
	if err := ow.cl.close(); err != nil {
		return err
	}
	commits, err := countCommits(ow.cs.dir)
	if err != nil {
		return err
	}
	if commits != committed {
		return fmt.Errorf("WAL holds %d commit records, %d txs were committed", commits, committed)
	}
	return nil
}

func (ow *openWorkload) layers(rc *runCtx, put func(string, float64)) error {
	tr := rc.tr
	put("wallet.sign_request_us", median(durationsUs(tr.of(spSignRequest))))
	put("wallet.build_tx_us", median(durationsUs(tr.of(spBuildTx))))
	httpLayer(tr, put)
	counterLayer(tr, ow.stack, put)
	evmLayer(rc, func(b int64) int { return ow.blocks[b] }, rc.notes["mean_gas"].(float64), put)
	storeLayer(rc, []*tracedBackend{ow.cs.backend, ow.counterBackend}, float64(rc.m.ratesOf(true).ops), put)
	put("core.token_bytes", core.TokenLength)

	var token, sign, queue, exec, residual []float64
	var txs []*evm.Transaction
	var reqs []*core.Request
	measured, denied := 0.0, 0.0
	for _, op := range ow.ops[ow.warm:] {
		measured++
		if op.denied {
			denied++
			continue
		}
		token = append(token, float64(op.tokenDone-op.pickup)/1e6)
		sign = append(sign, float64(op.signDone-op.tokenDone)/1e6)
		queue = append(queue, float64(op.execStart-op.signDone)/1e6)
		exec = append(exec, float64(op.execEnd-op.execStart)/1e6)
		residual = append(residual, 1-float64(op.execEnd-op.pickup)/float64(op.execEnd-op.due))
		if len(txs) < rc.replayN {
			txs, reqs = append(txs, op.tx), append(reqs, op.req)
		}
	}
	put("ts.denied_share", denied/measured)
	put("driver.stage_token_ms", median(token))
	put("driver.stage_sign_ms", median(sign))
	put("driver.stage_queue_ms", median(queue))
	put("driver.stage_execute_ms", median(exec))
	put("driver.budget_residual_share", median(residual))
	if err := replayService(reqs, ow.key, ow.rules, put); err != nil {
		return err
	}
	// replayService already took the secp256k1 rows from the proofs of
	// possession; the tx digests would read the same.
	if err := replayTokens(reqs, true, put); err != nil {
		return err
	}
	return replayCodec(txs, put)
}
