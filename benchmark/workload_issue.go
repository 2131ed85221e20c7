package main

import (
	"fmt"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
)

// issueWorkload is the closed-loop token-issuance load: issue-http (one
// reusable token per POST /v1/token, a third each super, method and
// argument) and, with quorum set, issue-quorum (four one-time method
// tokens per POST /v1/tokens, indexes from a ShardedCounter over the
// replica quorum).
type issueWorkload struct {
	quorum bool

	ws    *walletSet
	rules *rules.RuleSet
	key   *secp256k1.PrivateKey
	stack *tsStack
	q     *quorum
	cl    closers

	next    atomic.Uint64 // next op index
	workers []issueWorker
	// proxyBytes is Proxy.Stats around the measured interval.
	proxyBytes [2]uint64
}

// issueRec is the outcome of one op: the tokens it was issued (none when
// denied) and whether it fell in the measured interval.
type issueRec struct {
	i        uint64
	tokens   []core.Token
	measured bool
}

type issueWorker struct {
	recs []issueRec
	lat  []float64
	// failed counts ops whose outcome was not the one the input demands.
	attempted, failed, within int64
}

const chainHops = 4 // tokens per issue-quorum call: a Sec. IV-D call chain

var issueContract = types.Address{0xc0, 0x01}

// tokensPerOp is how many ops (tokens) one call stands for.
func (iw *issueWorkload) tokensPerOp() int {
	if iw.quorum {
		return chainHops
	}
	return 1
}

// requests builds the unsigned token requests of op i.
func (iw *issueWorkload) requests(g *gen, i uint64) []*core.Request {
	sender := iw.ws.addrs[g.walletAt[g.rank(i)]]
	if iw.quorum {
		reqs := make([]*core.Request, chainHops)
		for hop := range reqs {
			reqs[hop] = &core.Request{
				Type: core.MethodType, Contract: types.Address{0xc0, byte(hop + 1)}, Sender: sender,
				Method: "put(uint256)", OneTime: true,
			}
		}
		return reqs
	}
	req := &core.Request{Contract: issueContract, Sender: sender}
	switch g.u64(streamKind, i) % 3 {
	case 0:
		req.Type = core.SuperType
	case 1:
		req.Type, req.Method = core.MethodType, "buy(address,uint256)"
	default:
		arg := g.u64(streamArg, i)
		req.Type, req.Method = core.ArgumentType, "buy"
		req.Args = []core.NamedArg{
			{Name: "recipient", Value: iw.ws.addrs[arg>>8%uint64(len(iw.ws.addrs))]},
			{Name: "amount", Value: big.NewInt(int64(arg%maxAmount) + 1)},
		}
	}
	return []*core.Request{req}
}

func (iw *issueWorkload) build(rc *runCtx, dir string) error {
	iw.ws = rc.ws
	iw.rules = benchRules(rc.g, iw.ws)
	iw.key = secp256k1.PrivateKeyFromSeed([]byte("smacs benchmark token service"))
	cfg := tsConfig{key: iw.key, contract: issueContract, rules: iw.rules, workers: rc.workers, reg: rc.reg, tr: rc.tr}
	if iw.quorum {
		q, err := newQuorum(dir, rc.reg, rc.tr, &iw.cl)
		if err != nil {
			return err
		}
		iw.q = q
		cfg.underlying = q.coord
		cfg.contract = types.Address{} // a call chain spans contracts
	}
	stack, err := newTSStack(cfg, &iw.cl)
	if err != nil {
		return err
	}
	iw.stack = stack
	iw.workers = make([]issueWorker, rc.workers)
	return nil
}

func (iw *issueWorkload) close() error { return iw.cl.close() }

// run drives the closed loop on every worker until done reports true.
func (iw *issueWorkload) run(rc *runCtx, measured bool, done func() bool) {
	var wg sync.WaitGroup
	for w := range iw.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !done() {
				iw.op(rc, w, measured)
			}
		}(w)
	}
	wg.Wait()
}

// op is one closed-loop iteration of worker w.
func (iw *issueWorkload) op(rc *runCtx, w int, measured bool) {
	wk := &iw.workers[w]
	i := iw.next.Add(1) - 1
	id := int64(i)
	rank := rc.g.rank(i)
	key := iw.ws.keys[rc.g.walletAt[rank]]
	reqs := iw.requests(rc.g, i)

	start := time.Now()
	s := rc.tr.begin()
	for _, req := range reqs {
		if err := core.SignRequest(req, key); err != nil {
			panic(err) // a deterministic key cannot fail to sign
		}
	}
	rc.tr.end(spSignRequest, id, s)

	iw.stack.curOp[w].Store(id)
	var results []ts.Result
	s = rc.tr.begin()
	if iw.quorum {
		var err error
		if results, err = iw.stack.clients[w].RequestTokens(reqs); err != nil {
			results = make([]ts.Result, len(reqs))
			for k := range results {
				results[k].Err = err
			}
		}
	} else {
		tk, err := iw.stack.clients[w].RequestToken(reqs[0])
		results = []ts.Result{{Token: tk, Err: err}}
	}
	rc.tr.end(spRoundtrip, id, s)
	lat := time.Since(start)

	rec := issueRec{i: i, measured: measured}
	var failed int64
	for _, res := range results {
		switch {
		case allowed(rank) && res.Err == nil:
			rec.tokens = append(rec.tokens, res.Token)
		case !allowed(rank) && res.Err != nil && strings.Contains(res.Err.Error(), rules.ErrDenied.Error()):
			// The expected denial, with the rules error.
		default:
			failed++
		}
	}
	wk.recs = append(wk.recs, rec)
	if !measured {
		return
	}
	n := int64(len(results))
	wk.attempted += n
	wk.failed += failed
	rc.m.ops.Add(n - failed)
	if len(rec.tokens) == len(results) {
		ms := float64(lat) / float64(time.Millisecond)
		wk.lat = append(wk.lat, ms)
		if ms <= rc.spec.LimitMs {
			wk.within += n
		}
	}
}

func (iw *issueWorkload) warmup(rc *runCtx) error {
	start := time.Now()
	per := int64(iw.tokensPerOp())
	iw.run(rc, false, func() bool { return rc.warmupDone(start, int64(iw.next.Load())*per) })
	return nil
}

func (iw *issueWorkload) measure(rc *runCtx) error {
	if iw.q != nil {
		iw.proxyBytes[0] = iw.q.forwardedBytes()
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	stop, sampled := make(chan struct{}), make(chan struct{})
	rc.m.mark()
	go func() { defer close(sampled); rc.m.every(stop) }()
	iw.run(rc, true, func() bool { return !time.Now().Before(deadline) })
	close(stop)
	<-sampled
	if iw.q != nil {
		iw.proxyBytes[1] = iw.q.forwardedBytes()
	}
	return nil
}

// issued flattens every token the run was issued, warm-up included, with
// the request that asked for it.
func (iw *issueWorkload) issued(g *gen) []issuedToken {
	var out []issuedToken
	for w := range iw.workers {
		for _, rec := range iw.workers[w].recs {
			if len(rec.tokens) == 0 {
				continue
			}
			reqs := iw.requests(g, rec.i)
			for k, tk := range rec.tokens {
				out = append(out, issuedToken{req: reqs[k], raw: tk.Encode()})
			}
		}
	}
	return out
}

func (iw *issueWorkload) check(rc *runCtx) error {
	var denied, requests int64
	for w := range iw.workers {
		wk := &iw.workers[w]
		rc.attempted += wk.attempted
		rc.failed += wk.failed
		rc.withinLim += wk.within
		rc.lat = append(rc.lat, wk.lat...)
		for _, rec := range wk.recs {
			requests++
			if len(rec.tokens) == 0 {
				denied++
			}
		}
	}
	rc.notes["denied_ops"] = denied
	rc.notes["requests"] = requests
	if rc.failed > 0 {
		return fmt.Errorf("%d of %d ops had an unexpected outcome", rc.failed, rc.attempted)
	}
	// Denials are exactly the non-whitelisted requests: the service's own
	// count must agree with the count the inputs predict.
	_, rejected := iw.stack.svc.Stats()
	if want := uint64(denied * int64(iw.tokensPerOp())); rejected != want {
		return fmt.Errorf("service rejected %d requests, inputs demand %d", rejected, want)
	}
	tokens := iw.issued(rc.g)
	if err := checkTokens(tokens, iw.key.Address(), iw.quorum); err != nil {
		return err
	}
	if !iw.quorum {
		return nil
	}
	if err := iw.cl.close(); err != nil { // the journals' writers
		return err
	}
	return checkLeaseJournals(iw.q.dirs)
}

func (iw *issueWorkload) layers(rc *runCtx, put func(string, float64)) error {
	tr := rc.tr
	per := float64(iw.tokensPerOp())
	put("wallet.sign_request_us", median(durationsUs(tr.of(spSignRequest)))/per)
	httpLayer(tr, put)
	var requests, denied float64
	for w := range iw.workers {
		for _, rec := range iw.workers[w].recs {
			if rec.measured {
				requests++
				if len(rec.tokens) == 0 {
					denied++
				}
			}
		}
	}
	put("ts.denied_share", denied/requests)
	put("core.token_bytes", core.TokenLength)

	var reqs []*core.Request
	for i := uint64(0); len(reqs) < rc.replayN; i++ {
		rank := rc.g.rank(i)
		if !allowed(rank) {
			continue
		}
		for _, req := range iw.requests(rc.g, i) {
			if err := core.SignRequest(req, iw.ws.keys[rc.g.walletAt[rank]]); err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
	}
	reqs = reqs[:rc.replayN]
	if err := replayService(reqs, iw.key, iw.rules, put); err != nil {
		return err
	}
	if err := replayTokens(reqs, true, put); err != nil {
		return err
	}

	if !iw.quorum {
		return nil
	}
	counterLayer(tr, iw.stack, put)
	rounds := float64(iw.stack.lease.calls.Load())
	if rounds == 0 {
		return fmt.Errorf("no quorum round ran while tracing was on")
	}
	lease := durationsUs(tr.of(spLease))
	put("replica.round_us", median(lease))
	put("replica.round_p99_us", percentile(sortedCopy(lease), 0.99))
	put("replica.rounds_per_token", rounds/float64(iw.stack.outer.calls.Load()))
	put("replica.node_handler_us", median(durationsUs(tr.of(spNodeHandler))))
	put("replica.msgs_per_round", float64(len(tr.of(spRPC)))/rounds)
	// Bytes and retries are read over the whole measured interval, so
	// their base is every round in it, traced or not.
	allRounds := rc.delta("store_wal_appends_total") / quorumReplicas
	put("replica.bytes_per_round", float64(iw.proxyBytes[1]-iw.proxyBytes[0])/allRounds)
	put("replica.retries_per_round", rc.delta("coordinator_grant_retries_total")/allRounds)
	storeLayer(rc, iw.q.backends, float64(rc.m.ratesOf(true).ops), put)
	return nil
}

// httpLayer reports the tshttp rows and the handler's self time.
func httpLayer(tr *tracer, put func(string, float64)) {
	round, handler := tr.of(spRoundtrip), tr.of(spHandler)
	put("tshttp.roundtrip_us", median(durationsUs(round)))
	put("tshttp.handler_us", median(durationsUs(handler)))
	var wire []float64
	for hi, ri := range assign(round, handler, true) {
		if ri >= 0 {
			wire = append(wire, float64(round[ri].dur()-handler[hi].dur())/1e3)
		}
	}
	put("tshttp.wire_us", median(wire))
	if n := float64(tr.requests.Load()); n > 0 {
		put("tshttp.request_bytes", float64(tr.reqBytes.Load())/n)
		put("tshttp.response_bytes", float64(tr.respBytes.Load())/n)
	}
	var self []float64
	for _, ns := range selfTimes(handler, tr.of(spCounterNext), false) {
		self = append(self, float64(ns)/1e3)
	}
	put("ts.handler_self_us", median(self))
}

// counterLayer reports the counter rows of a stack that issues one-time
// indexes.
func counterLayer(tr *tracer, st *tsStack, put func(string, float64)) {
	next := durationsUs(tr.of(spCounterNext))
	put("ts.counter_next_us", median(next))
	put("ts.counter_next_p99_us", percentile(sortedCopy(next), 0.99))
	if tokens := st.outer.calls.Load(); tokens > 0 {
		put("ts.lease_rounds_per_token", float64(st.lease.calls.Load())/float64(tokens))
	}
}

// storeLayer reports the store rows over the traced backends of a run;
// ops is the number of ops completed while tracing was on.
func storeLayer(rc *runCtx, backends []*tracedBackend, ops float64, put func(string, float64)) {
	var spans []span
	for _, k := range []spanKind{spAppendChain, spAppendCounter, spAppendNode} {
		spans = append(spans, rc.tr.of(k)...)
	}
	us := durationsUs(spans)
	put("store.append_us", median(us))
	put("store.append_p99_us", percentile(sortedCopy(us), 0.99))
	var appends int64
	for _, b := range backends {
		appends += b.appends.Load()
	}
	put("store.appends_per_op", float64(appends)/ops)
	if wall := rc.m.tracedWall(); wall > 0 {
		put("store.busy_share", float64(covered(spans, 0, 1<<62))/float64(wall))
	}
	all := float64(rc.m.ratesOf(true).ops + rc.m.ratesOf(false).ops)
	put("store.bytes_per_op", rc.delta("store_wal_bytes_written_total")/all)
	put("store.fsyncs_per_op", rc.delta("store_wal_fsync_total")/all)
}
