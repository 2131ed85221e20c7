package bench

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/ts"
	"repro/internal/tshttp"
	"repro/internal/types"
)

// The durable scenario runs the full SMACS pipeline on file-backed stores
// (internal/store) and crashes it mid-run: phase 1 performs roughly half
// of every client's operations and the legitimate first use of each
// to-be-replayed one-time token, then every store handle is abandoned
// without Close — the state a kill -9 leaves behind. Phase 2 reopens the
// same directories, recovers the counter and the chain from their WALs,
// and runs the remainder, including the replay of every token spent
// before the crash. A healthy recovery produces exactly the counts of a
// crash-free run: no committed write lost (heights and nonces survive),
// no spent one-time index forgotten (every replay rejected with
// ErrTokenUsed), no index issued twice (fresh tokens keep being
// accepted).

// durableChainSnapEvery / durableCounterSnapEvery are the snapshot
// cadences of the durable scenario's stores: small enough that even a
// smoke run crosses at least one rotation, so recovery exercises the
// snapshot-plus-log-suffix path rather than pure log replay.
const (
	durableChainSnapEvery   = 8
	durableCounterSnapEvery = 2
)

// durableWorld is one incarnation of the scenario's process: file-backed
// counter and chain, an HTTP Token Service, and the batch submitter.
type durableWorld struct {
	env      *e2eEnv
	stopHTTP func()
	subDone  chan struct{}
}

// finish closes the submission pipeline (draining in-flight batches) and
// shuts the HTTP frontend down. The store handles are deliberately NOT
// closed: the next open must cope with whatever the WAL holds.
func (w *durableWorld) finish() {
	close(w.env.sub)
	<-w.subDone
	w.stopHTTP()
}

func runDurable(cfg ScenarioConfig, run E2EConfig) (E2ERow, error) {
	if cfg.Clients < 1 || cfg.Ops < 2 {
		return E2ERow{}, fmt.Errorf("durable scenario needs clients and ≥2 ops, got %d×%d", cfg.Clients, cfg.Ops)
	}
	if cfg.ReplayedOps < 1 {
		return E2ERow{}, fmt.Errorf("durable scenario needs replayed ops: replay-after-recovery is its core assertion")
	}
	if cfg.TokenBatch < 1 {
		cfg.TokenBatch = 8
	}
	if cfg.TxBatch < 1 {
		cfg.TxBatch = 16
	}
	dir := run.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "smacs-durable-*")
		if err != nil {
			return E2ERow{}, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	tsDir, chainDir := filepath.Join(dir, "ts"), filepath.Join(dir, "chain")
	for _, d := range []string{tsDir, chainDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return E2ERow{}, err
		}
	}

	// Keys and ACRs, derived exactly like the crash-free scenarios.
	tsKey := secp256k1.PrivateKeyFromSeed([]byte("e2e ts key " + cfg.Name))
	seedKey := func(role string, i int) *secp256k1.PrivateKey {
		return secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("e2e %s %s %d", cfg.Name, role, i)))
	}
	honest := make([]*secp256k1.PrivateKey, cfg.Clients)
	for i := range honest {
		honest[i] = seedKey("client", i)
	}
	replayKey := seedKey("replay", 0)
	owner := seedKey("owner", 0)
	allowed := rules.NewList(rules.Whitelist)
	for _, k := range honest {
		allowed.Add(core.ValueKey(k.Address()))
	}
	allowed.Add(core.ValueKey(replayKey.Address()))
	ruleSet := rules.NewRuleSet()
	ruleSet.SetSenderList(allowed)

	// The bitmap must hold every index either incarnation can issue: the
	// run's one-time tokens plus the leases each crash burns (at most one
	// MaxSpread per incarnation; see ts.ShardedCounter).
	spread := shardedCounterShards * shardedCounterBlock
	bits := cfg.Clients*cfg.Ops + cfg.ReplayedOps + 2*spread + e2eBitmapSlack

	// The deterministic bootstrap both incarnations share: same keys,
	// same deploy order → same addresses, so recovery can re-register the
	// contract's Go handlers before the snapshot restores its storage.
	var target types.Address
	boot := func(ch *evm.Chain) error {
		verifier := core.NewVerifier(tsKey.Address())
		bm, err := core.NewBitmap(bits, 1<<32)
		if err != nil {
			return err
		}
		verifier.WithBitmap(bm)
		addr, _, err := ch.Deploy(owner.Address(), transform.Enable(contracts.NewSimpleStorage(), verifier))
		if err != nil {
			return err
		}
		target = addr
		for _, k := range honest {
			ch.Fund(k.Address(), ether(1000))
		}
		ch.Fund(replayKey.Address(), ether(1000))
		return nil
	}

	// Both incarnations report to one registry, so the series span the
	// crash: recovery metrics from phase 2's stores land next to phase
	// 1's issuance counters, exactly like a restarted daemon scraping to
	// the same Prometheus.
	reg := metrics.NewRegistry()
	core.RegisterCacheMetrics(reg)
	tokenH0, tokenM0 := core.TokenSigCacheStats()

	agg := newE2EAgg(reg)
	open := func(phaseOps int) (*durableWorld, error) {
		fileOpts := store.FileOptions{Metrics: reg}
		tsFile, err := store.OpenFile(tsDir, fileOpts)
		if err != nil {
			return nil, err
		}
		counter, err := store.OpenCounter(tsFile, durableCounterSnapEvery)
		if err != nil {
			return nil, err
		}
		sharded, err := ts.NewShardedCounter(counter, shardedCounterShards, shardedCounterBlock)
		if err != nil {
			return nil, err
		}
		svc, err := ts.New(ts.Config{Key: tsKey, Rules: ruleSet, Counter: sharded, Metrics: reg})
		if err != nil {
			return nil, err
		}
		base, stopHTTP, err := startServer(svc, reg)
		if err != nil {
			return nil, err
		}
		chainFile, err := store.OpenFile(chainDir, fileOpts)
		if err != nil {
			stopHTTP()
			return nil, err
		}
		chainCfg := evm.DefaultConfig()
		chainCfg.Metrics = reg
		chain, err := evm.RecoverChain(chainCfg, chainFile, durableChainSnapEvery, boot)
		if err != nil {
			stopHTTP()
			return nil, fmt.Errorf("recover chain: %w", err)
		}
		phaseCfg := cfg
		phaseCfg.Ops = phaseOps
		env := &e2eEnv{
			cfg:     phaseCfg,
			chain:   chain,
			targets: []types.Address{target},
			gasPrc:  big.NewInt(1),
			client:  tshttp.NewClient(base, ""),
			agg:     agg,
			sub:     make(chan *e2eOp, 4*cfg.TxBatch),
			tracer:  run.Tracer,
		}
		w := &durableWorld{env: env, stopHTTP: stopHTTP}
		w.subDone = env.startSubmitter(tsKey.Address())
		return w, nil
	}

	phase1 := (cfg.Ops + 1) / 2
	start := time.Now()

	// Phase 1: honest traffic plus the first (legitimate) use of every
	// to-be-replayed one-time token.
	w1, err := open(phase1)
	if err != nil {
		return E2ERow{}, err
	}
	var saved [][]byte
	if err := runProducers(w1.env, honest, func(e *e2eEnv) error {
		var err error
		saved, err = e.harvestReplayTokens(replayKey)
		return err
	}); err != nil {
		return E2ERow{}, err
	}
	// Token issuance is done once the producers return, so the server
	// stats can be read before the frontend goes down with the crash.
	if err := agg.addServerStats(w1.env.client); err != nil {
		return E2ERow{}, err
	}
	w1.finish()
	preHeight := w1.env.chain.Height()
	preNonce := w1.env.chain.NonceOf(replayKey.Address())
	// The crash: w1's store handles are dropped without Close. Every
	// outcome counted above is already fsynced (a lease Append, and the
	// one AppendBatch behind each chain Execute, return only once their
	// records are durable), so recovery owes all of it back.

	// Phase 2: recover from the WALs, then replay the spent tokens
	// against the recovered bitmap state alongside the remaining honest
	// traffic.
	w2, err := open(cfg.Ops - phase1)
	if err != nil {
		return E2ERow{}, err
	}
	if h := w2.env.chain.Height(); h != preHeight {
		return E2ERow{}, fmt.Errorf("recovered chain height %d, committed %d before the crash", h, preHeight)
	}
	if n := w2.env.chain.NonceOf(replayKey.Address()); n != preNonce {
		return E2ERow{}, fmt.Errorf("recovered replay-wallet nonce %d, want %d: committed txs lost", n, preNonce)
	}
	if err := runProducers(w2.env, honest, func(e *e2eEnv) error {
		return e.replaySpent(replayKey, saved)
	}); err != nil {
		return E2ERow{}, err
	}
	if err := agg.addServerStats(w2.env.client); err != nil {
		return E2ERow{}, err
	}
	w2.finish()
	// The shared registry aggregated both incarnations' issuance; it must
	// agree with the sum of the two frontends' /v1/stats reads.
	if err := checkRegistryStats(reg, agg); err != nil {
		return E2ERow{}, err
	}
	return finishRow(cfg, agg, time.Since(start), reg,
		cacheRate(tokenH0, tokenM0, core.TokenSigCacheStats)), nil
}

// runProducers drives every honest client plus one extra producer
// concurrently against env, mirroring the crash-free harness.
func runProducers(env *e2eEnv, honest []*secp256k1.PrivateKey, extra func(*e2eEnv) error) error {
	producers := make([]func() error, 0, len(honest)+1)
	for _, k := range honest {
		k := k
		producers = append(producers, func() error { return env.runHonest(k) })
	}
	if extra != nil {
		producers = append(producers, func() error { return extra(env) })
	}
	errs := make([]error, len(producers))
	var wg sync.WaitGroup
	for i, p := range producers {
		wg.Add(1)
		go func(i int, p func() error) {
			defer wg.Done()
			errs[i] = p()
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// harvestReplayTokens obtains the scenario's one-time tokens, submits the
// legitimate first use of each, and returns the token entries for the
// post-crash replay.
func (e *e2eEnv) harvestReplayTokens(key *secp256k1.PrivateKey) ([][]byte, error) {
	nonce := e.chain.NonceOf(key.Address())
	saved := make([][]byte, 0, e.cfg.ReplayedOps)
	for off := 0; off < e.cfg.ReplayedOps; off += e.cfg.TokenBatch {
		n := min(e.cfg.TokenBatch, e.cfg.ReplayedOps-off)
		start := time.Now()
		reqs := make([]*core.Request, 0, n)
		for j := 0; j < n; j++ {
			req := e.opRequests(key.Address(), false)[0]
			req.OneTime = true
			reqs = append(reqs, req)
		}
		res, err := e.fetchTokens(e.client, key, reqs)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("replay wallet should be whitelisted: %w", r.Err)
			}
			entry := core.EncodeEntry(e.targets[0], r.Token)
			saved = append(saved, entry)
			tx, err := e.buildTx(key, nonce, [][]byte{entry})
			if err != nil {
				return nil, err
			}
			nonce++
			e.sub <- &e2eOp{class: opReplayFirst, tx: tx, start: start}
		}
	}
	return saved, nil
}

// replaySpent resubmits token entries whose one-time indexes were spent
// before the crash; the recovered bitmap must reject every one with
// ErrTokenUsed.
func (e *e2eEnv) replaySpent(key *secp256k1.PrivateKey, saved [][]byte) error {
	nonce := e.chain.NonceOf(key.Address())
	start := time.Now()
	for _, entry := range saved {
		tx, err := e.buildTx(key, nonce, [][]byte{entry})
		if err != nil {
			return err
		}
		nonce++
		e.sub <- &e2eOp{class: opReplay, tx: tx, start: start}
	}
	return nil
}
