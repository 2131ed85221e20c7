package main

import (
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/metrics"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
)

// execWorkload replays pre-signed guarded transactions through
// Chain.Execute in blocks of 64 on a file store: exec-disjoint (distinct
// senders, own slots, one reusable method token per wallet) and, with hot
// set, exec-hot (one shared slot, 4-long nonce chains from 4 hot wallets,
// a fresh one-time argument token on every tx).
type execWorkload struct {
	hot bool

	ws  *walletSet
	key *secp256k1.PrivateKey
	cs  *chainStack
	cl  closers

	blocks [][]*evm.Transaction
	metas  [][]txMeta
	next   int // next block to execute
	// done holds the outcome of every executed tx, block by block.
	done [][]txOutcome
	// measuredFrom is the first measured block.
	measuredFrom int
}

// txMeta is what the checks need to know about a generated tx.
type txMeta struct {
	wallet uint16
	req    *core.Request
	index  int64 // one-time index of its token, or core.NotOneTime
}

// txOutcome is the part of a BatchResult the checks keep (the receipt's
// execution trace is dropped at once).
type txOutcome struct {
	ok      bool
	err     error
	gasUsed uint64
	// execGas is gasUsed minus the intrinsic part, which is priced per
	// calldata byte and so moves with the signature bytes.
	execGas uint64
}

func outcomeOf(res evm.BatchResult) txOutcome {
	if res.Err != nil || res.Receipt == nil {
		return txOutcome{err: res.Err}
	}
	r := res.Receipt
	return txOutcome{ok: r.Status, err: r.Err, gasUsed: r.GasUsed, execGas: r.GasUsed - r.GasByCategory[gas.CatIntrinsic]}
}

const hotWallets, hotChain = 4, 4

func (ew *execWorkload) build(rc *runCtx, dir string) error {
	ew.ws = rc.ws
	ew.key = secp256k1.PrivateKeyFromSeed([]byte("smacs benchmark token service"))
	cs, err := newChainStack(dir, ew.ws, ew.key, rc.reg, rc.tr, &ew.cl)
	if err != nil {
		return err
	}
	ew.cs = cs

	pool := execPoolDisjoint
	if ew.hot {
		pool = execPoolHot
	}
	warm := warmupOps
	if rc.smoke {
		warm = 2 * blockTxs
	}
	nBlocks := (int(rc.seconds*float64(pool))+warm)/blockTxs + 1
	ew.generate(rc.g, nBlocks)

	// Tokens come from a real Token Service over the same rules; proofs
	// of possession are an HTTP-path cost that this workload bypasses.
	svc, err := ts.New(ts.Config{Key: ew.key, Contract: cs.target, Rules: benchRules(rc.g, ew.ws),
		Lifetime: tokenLifetime, Metrics: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	tokens := make([][]core.Token, nBlocks)
	reusable := make(map[uint16]core.Token) // exec-disjoint: one token per wallet
	for b, metas := range ew.metas {
		var reqs []*core.Request
		var slots []int
		for p, m := range metas {
			if _, ok := reusable[m.wallet]; !ok || ew.hot {
				reqs, slots = append(reqs, m.req), append(slots, p)
			}
		}
		tokens[b] = make([]core.Token, len(metas))
		for k, res := range svc.IssueBatch(reqs) {
			if res.Err != nil {
				return fmt.Errorf("issue token for block %d: %w", b, res.Err)
			}
			tokens[b][slots[k]] = res.Token
			if !ew.hot {
				reusable[metas[slots[k]].wallet] = res.Token
			}
		}
		for p := range metas {
			if !ew.hot {
				tokens[b][p] = reusable[metas[p].wallet]
			}
			metas[p].index = tokens[b][p].Index
		}
	}
	return ew.sign(tokens)
}

// generate lays out nBlocks blocks of senders and calls, and the token
// request each tx needs. Nonces follow from the order.
func (ew *execWorkload) generate(g *gen, nBlocks int) {
	ew.metas = make([][]txMeta, nBlocks)
	var hot []uint16
	for r := 0; len(hot) < hotWallets; r++ {
		if allowed(r) {
			hot = append(hot, g.walletAt[r])
		}
	}
	isHot := map[uint16]bool{}
	if ew.hot {
		for _, w := range hot {
			isHot[w] = true
		}
	}
	for b := range ew.metas {
		inBlock := map[uint16]bool{}
		for p := 0; p < blockTxs; p++ {
			i := uint64(b*blockTxs + p)
			var w uint16
			if ew.hot && p < hotWallets*hotChain {
				w = hot[p%hotWallets] // chains interleave: a,b,c,d,a,b,c,d,...
			} else {
				for try := uint64(0); ; try++ {
					w = g.walletAt[g.allowedRank(i+try<<32)]
					if !inBlock[w] && !isHot[w] {
						break
					}
				}
				inBlock[w] = true
			}
			req := &core.Request{Type: core.MethodType, Contract: ew.cs.target, Sender: ew.ws.addrs[w], Method: "put(uint256)"}
			if ew.hot {
				arg := g.u64(streamArg, i)
				req = &core.Request{Type: core.ArgumentType, Contract: ew.cs.target, Sender: ew.ws.addrs[w],
					Method: "buy", OneTime: true,
					Args: []core.NamedArg{
						{Name: "recipient", Value: ew.ws.addrs[arg>>8%uint64(len(ew.ws.addrs))]},
						{Name: "amount", Value: big.NewInt(int64(arg%maxAmount) + 1)},
					}}
			}
			ew.metas[b] = append(ew.metas[b], txMeta{wallet: w, req: req})
		}
	}
}

// sign builds and signs every tx of the pool, in parallel. Nonces follow
// from the order of the blocks.
func (ew *execWorkload) sign(tokens [][]core.Token) error {
	type job struct {
		b, p  int
		nonce uint64
	}
	var jobs []job
	nonces := make(map[uint16]uint64)
	ew.blocks = make([][]*evm.Transaction, len(ew.metas))
	for b, metas := range ew.metas {
		ew.blocks[b] = make([]*evm.Transaction, len(metas))
		for p, m := range metas {
			jobs = append(jobs, job{b, p, nonces[m.wallet]})
			nonces[m.wallet]++
		}
	}
	return parallel(len(jobs), func(k int) (err error) {
		j := jobs[k]
		m := ew.metas[j.b][j.p]
		// put writes the wallet's own tx count so far, which the final
		// counter check reads back.
		method, args := "put", []any{new(big.Int).SetUint64(j.nonce + 1)}
		if ew.hot {
			method, args = "buy", m.req.ArgValues()
		}
		ew.blocks[j.b][j.p], err = ew.cs.newTx(ew.ws.keys[m.wallet], j.nonce, method, args, tokens[j.b][j.p])
		return err
	})
}

func (ew *execWorkload) close() error { return ew.cl.close() }

// runBlock executes the next block and keeps its outcomes.
func (ew *execWorkload) runBlock(rc *runCtx, measured bool) {
	b := ew.next
	ew.next++
	s := rc.tr.begin()
	start := time.Now()
	results := ew.cs.execute(ew.blocks[b])
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	rc.tr.end(spExecute, int64(b), s)
	outs := make([]txOutcome, len(results))
	var ok int64
	for p, res := range results {
		outs[p] = outcomeOf(res)
		if outs[p].ok {
			ok++
		}
	}
	ew.done = append(ew.done, outs)
	if !measured {
		return
	}
	rc.m.ops.Add(ok)
	for p := range outs {
		if outs[p].ok {
			// A tx is committed durably when its block returns.
			rc.lat = append(rc.lat, ms)
			if ms <= rc.spec.LimitMs {
				rc.withinLim++
			}
		}
	}
}

func (ew *execWorkload) warmup(rc *runCtx) error {
	start := time.Now()
	for ew.next < len(ew.blocks) && !rc.warmupDone(start, int64(ew.next*blockTxs)) {
		ew.runBlock(rc, false)
	}
	ew.measuredFrom = ew.next
	return nil
}

func (ew *execWorkload) measure(rc *runCtx) error {
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	rc.m.mark()
	last := time.Now()
	for ew.next < len(ew.blocks) && time.Now().Before(deadline) {
		ew.runBlock(rc, true)
		if time.Since(last) >= sliceMillis*time.Millisecond {
			rc.m.mark()
			last = time.Now()
		}
	}
	rc.m.mark()
	rc.notes["pool_blocks"] = len(ew.blocks)
	rc.notes["blocks_run"] = ew.next
	if left := time.Until(deadline); left > 0 {
		// Not a failure: the rates are medians over slices and hold for a
		// shorter interval. But the pool constants in spec.go are stale.
		rc.notes["pool_drained"] = true
		fmt.Fprintf(os.Stderr, "benchmark: %s drained its pool of %d blocks %.1f s before the deadline; raise execPool* in spec.go\n",
			rc.spec.Name, len(ew.blocks), left.Seconds())
	}
	return nil
}

// gasClass names the class of a committed tx whose execution gas is
// pinned: method / token type / one-time / what it found in storage.
func gasClass(req *core.Request, variant string) string {
	oneTime := "reusable"
	if req.OneTime {
		oneTime = "one-time"
	}
	return fmt.Sprintf("%s/%s/%s/%s", req.MethodName(), req.Type, oneTime, variant)
}

// storageModel predicts which storage words a committed tx found empty,
// which is all that separates the gas classes of one method: an SSTORE
// into a zero word costs more.
type storageModel struct {
	slotUsed map[uint16]bool // put: the wallet's own slot
	sold     bool            // buy: the shared counter
	words    map[int64]bool  // bitmap words holding a set bit
}

func (m *storageModel) variant(meta txMeta) string {
	if m.slotUsed == nil {
		m.slotUsed, m.words = map[uint16]bool{}, map[int64]bool{}
	}
	var v string
	if meta.req.MethodName() == "put" {
		v = "slot-again"
		if !m.slotUsed[meta.wallet] {
			v = "slot-first"
		}
		m.slotUsed[meta.wallet] = true
	} else {
		v = "sold-again"
		if !m.sold {
			v = "sold-first"
		}
		m.sold = true
	}
	if meta.index >= 0 {
		// The window never slides (bitmapBits covers every index), so
		// index i lives in bit i of the map.
		word := meta.index / 256
		if m.words[word] {
			v += "+word-again"
		} else {
			v += "+word-first"
		}
		m.words[word] = true
	}
	return v
}

func (ew *execWorkload) check(rc *runCtx) error {
	var audit gasAudit
	var model storageModel
	var committed int
	perWallet := map[uint16]uint64{}
	var gasSum float64
	for b, outs := range ew.done {
		for p, out := range outs {
			meta := ew.metas[b][p]
			if b >= ew.measuredFrom {
				rc.attempted++
			}
			if !out.ok {
				if b >= ew.measuredFrom {
					rc.failed++
				}
				rc.notes["first_failure"] = fmt.Sprintf("block %d tx %d: %v", b, p, out.err)
				continue
			}
			committed++
			perWallet[meta.wallet]++
			gasSum += float64(out.gasUsed)
			if err := audit.add(gasClass(meta.req, model.variant(meta)), out.execGas); err != nil {
				return err
			}
		}
	}
	rc.notes["gas_classes"] = audit.seen
	rc.notes["mean_gas"] = gasSum / float64(committed)
	if rc.failed > 0 {
		return fmt.Errorf("%d of %d txs were not accepted (%v)", rc.failed, rc.attempted, rc.notes["first_failure"])
	}
	if err := audit.compare(); err != nil {
		return err
	}
	if err := checkContract(ew.cs, ew.ws, ew.hot, committed, perWallet); err != nil {
		return err
	}
	// Every committed tx is one KindCommit record in the WAL.
	if err := ew.cl.close(); err != nil {
		return err
	}
	commits, err := countCommits(ew.cs.dir)
	if err != nil {
		return err
	}
	if commits != committed {
		return fmt.Errorf("WAL holds %d commit records, %d txs were committed", commits, committed)
	}
	return nil
}

// checkContract compares the contract's final counters with the accepted
// counts: the shared sold counter, or every wallet's own slot.
func checkContract(cs *chainStack, ws *walletSet, sold bool, committed int, perWallet map[uint16]uint64) error {
	read := func(method string, args ...any) (uint64, error) {
		ret, _, err := cs.chain.StaticCall(types.Address{}, cs.target, method, args, nil)
		if err != nil {
			return 0, err
		}
		v, _ := ret[0].(*big.Int)
		return v.Uint64(), nil
	}
	if sold {
		got, err := read("sold")
		if err != nil {
			return err
		}
		if got != uint64(committed) {
			return fmt.Errorf("contract sold %d, %d buys were accepted", got, committed)
		}
		return nil
	}
	for w, want := range perWallet {
		got, err := read("get", ws.addrs[w])
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("wallet %d's slot holds %d, %d puts were accepted", w, got, want)
		}
	}
	return nil
}

func (ew *execWorkload) layers(rc *runCtx, put func(string, float64)) error {
	evmLayer(rc, func(int64) int { return blockTxs }, rc.notes["mean_gas"].(float64), put)
	storeLayer(rc, []*tracedBackend{ew.cs.backend}, float64(rc.m.ratesOf(true).ops), put)
	put("core.token_bytes", core.TokenLength)

	var txs []*evm.Transaction
	var reqs []*core.Request
	for b := ew.measuredFrom; b < len(ew.blocks) && len(txs) < rc.replayN; b++ {
		for p, tx := range ew.blocks[b] {
			txs, reqs = append(txs, tx), append(reqs, ew.metas[b][p].req)
		}
	}
	txs, reqs = txs[:min(rc.replayN, len(txs))], reqs[:min(rc.replayN, len(reqs))]
	return replayChain(txs, reqs, ew.cs.chain.Config().ChainID, put)
}

// replayChain is the replay pass of a workload that executes txs.
func replayChain(txs []*evm.Transaction, reqs []*core.Request, chainID uint64, put func(string, float64)) error {
	if err := replayTokens(reqs, false, put); err != nil {
		return err
	}
	digests, sigs, err := txCrypto(txs, chainID)
	if err != nil {
		return err
	}
	if err := replayCrypto(digests, sigs, put); err != nil {
		return err
	}
	return replayCodec(txs, put)
}

// evmLayer reports the evm rows from the Execute spans and the chain's own
// counters, plus the two cache shares they explain.
func evmLayer(rc *runCtx, sizeOf func(block int64) int, meanGas float64, put func(string, float64)) {
	tr := rc.tr
	execs := tr.of(spExecute)
	pre, appends := tr.of(spPrevalidate), tr.of(spAppendChain)
	preOf, appOf := assign(execs, pre, false), assign(execs, appends, false)
	preEnd := make([]int64, len(execs))
	appNs := make([]int64, len(execs))
	for ci, pi := range preOf {
		if pi >= 0 {
			preEnd[pi] = max(preEnd[pi], pre[ci].end)
		}
	}
	for ci, pi := range appOf {
		if pi >= 0 {
			appNs[pi] += appends[ci].dur()
		}
	}
	var txs, execNs, preNs, selfNs float64
	var blockMs []float64
	for i, e := range execs {
		n := float64(sizeOf(e.id))
		txs += n
		execNs += float64(e.dur())
		phase := int64(0)
		if preEnd[i] > e.start {
			phase = preEnd[i] - e.start
		}
		preNs += float64(phase)
		selfNs += float64(e.dur() - phase - appNs[i])
		blockMs = append(blockMs, float64(e.dur())/1e6)
	}
	if txs > 0 {
		put("evm.execute_us_per_tx", execNs/1e3/txs)
		put("evm.prevalidate_us_per_tx", preNs/1e3/txs)
		put("evm.execute_self_us_per_tx", selfNs/1e3/txs)
		put("evm.block_ms", median(blockMs))
		put("evm.block_txs", txs/float64(len(execs)))
	}
	put("evm.gas_per_tx", meanGas)
	all := rc.delta(`evm_txs_total{outcome="accepted"}`)
	put("evm.conflicts_per_tx", rc.delta("evm_exec_conflicts_total")/all)
	put("evm.reexec_per_tx", rc.delta("evm_exec_reexecutions_sum")/all)
	// A miss is an ecrecover the cache did not save. Hits are not counted
	// against lookups: the prehook's own lookup-then-fill makes every later
	// lookup of the same tx a hit, re-executions included, whatever the
	// workload.
	share := func(misses string) float64 { return max(1-rc.delta(misses)/all, 0) }
	put("evm.sender_cache_hit_share", share("evm_sender_cache_misses_total"))
	put("core.token_cache_hit_share", share("core_token_sig_cache_misses_total"))
}
