package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	"repro/internal/ts/stack"
	"repro/internal/tshttp"
	"repro/internal/types"
)

// E2EConfig parameterizes the end-to-end scenario harness.
type E2EConfig struct {
	// Scenarios restricts the run (nil = every profile of ScenarioNames).
	Scenarios []string `json:"scenarios,omitempty"`
	// Dir is where the durable scenario keeps its file-backed stores and
	// the quorum-backed scenarios their replica WALs, one subdirectory per
	// scenario (empty: a fresh temp dir, removed afterwards).
	Dir string `json:"dir,omitempty"`
	// ChaosSeed varies the fault timing of chaos scenarios: the victim
	// replica and the inject/heal progress thresholds derive from it, so
	// CI can sweep timings while any single run stays reproducible. The
	// correctness counts must be seed-independent — that is the point.
	ChaosSeed int64 `json:"chaosSeed,omitempty"`
}

// E2ECounts are the correctness counts of one scenario run. Every field is
// deterministic for a given ScenarioConfig, so the whole struct is compared
// exactly against the CI envelope.
type E2ECounts struct {
	// TokenRequests is the number of request slots clients submitted.
	TokenRequests int `json:"tokenRequests"`
	// TokensIssued / TokensDenied are the client-observed outcomes.
	TokensIssued int `json:"tokensIssued"`
	TokensDenied int `json:"tokensDenied"`
	// TSIssued / TSRejected are the server-reported stats (GET /v1/stats),
	// summed over every Token Service frontend the scenario ran; they must
	// match the client-observed counts.
	TSIssued   int `json:"tsIssued"`
	TSRejected int `json:"tsRejected"`
	// TxSubmitted / TxAccepted / TxRejected tally the guarded transactions
	// fed through Chain.Execute. The first use of a replayed one-time
	// token is legitimate and counts as accepted.
	TxSubmitted int `json:"txSubmitted"`
	TxAccepted  int `json:"txAccepted"`
	TxRejected  int `json:"txRejected"`
	// DupOneTimeIndexes counts one-time counter indexes observed on more
	// than one issued token across the whole run — every incarnation,
	// every frontend. It must be zero: a duplicate means the replicated
	// counter handed the same index out twice, the exact double-spend
	// window the quorum protocol exists to close.
	DupOneTimeIndexes int `json:"dupOneTimeIndexes"`
	// ReadsOK / ReadsFailed tally token-guarded static calls.
	ReadsOK     int `json:"readsOK"`
	ReadsFailed int `json:"readsFailed"`
	// AdvAccepted counts adversarial transactions (tampered, replayed,
	// expired) that the chain accepted — it must be zero.
	AdvAccepted int `json:"adversarialAccepted"`
	// RejTampered / RejReplayed / RejExpired count adversarial
	// transactions rejected with exactly the expected reason
	// (ErrBadTokenSig / ErrTokenUsed / ErrTokenExpired).
	RejTampered int `json:"rejectedTampered"`
	RejReplayed int `json:"rejectedReplayed"`
	RejExpired  int `json:"rejectedExpired"`
}

// E2ERow is one scenario's outcome: its sizing and its exact correctness
// counts. The harness measures no time; performance is the repo
// benchmark's job (benchmark/README.md).
type E2ERow struct {
	Scenario     string `json:"scenario"`
	Clients      int    `json:"clients"`
	OpsPerClient int    `json:"opsPerClient"`
	// ChaosFaultInjected reports that the scenario's replica fault
	// actually fired (chaos scenarios only) — a guard against a run so
	// fast the fault scheduler never got to act, which would make the
	// pinned counts vacuous.
	ChaosFaultInjected bool `json:"chaosFaultInjected,omitempty"`

	Counts E2ECounts `json:"counts"`
}

// E2EResult is the full harness run.
type E2EResult struct {
	Config E2EConfig `json:"config"`
	Rows   []E2ERow  `json:"rows"`
}

// E2E runs the end-to-end scenario harness: for every selected scenario it
// stands up a real Token Service over a loopback HTTP listener, drives the
// configured wallet clients through tshttp.Client.RequestTokens, feeds the
// signed guarded transactions into Chain.Execute (optimistic scheduler,
// with the parallel prevalidation prehook), and tallies exact
// accept/reject counts.
func E2E(cfg E2EConfig) (*E2EResult, error) {
	scenarios, err := ScenariosFor(cfg.Scenarios)
	if err != nil {
		return nil, err
	}
	res := &E2EResult{Config: cfg}
	for _, sc := range scenarios {
		row, err := runScenario(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("e2e %s: %w", sc.Name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// opClass labels an operation through the pipeline so its outcome can be
// classified exactly.
type opClass int

const (
	opWrite opClass = iota
	opTampered
	opReplayFirst // the legitimate first use of a to-be-replayed token
	opReplay      // the replayed duplicate — must be rejected
	opExpired
)

// e2eOp is one in-flight guarded transaction.
type e2eOp struct {
	class opClass
	tx    *evm.Transaction
}

// e2eAgg accumulates counts from concurrent clients and the batch
// submitter.
type e2eAgg struct {
	mu     sync.Mutex
	counts E2ECounts
	// oneTime tracks every one-time counter index seen on an issued
	// token; a repeat increments DupOneTimeIndexes. The map lives on the
	// aggregate (not the env) so it spans every frontend and — for the
	// durable and chaos scenarios — every incarnation of the service.
	oneTime map[int64]bool
}

func newE2EAgg() *e2eAgg {
	return &e2eAgg{oneTime: make(map[int64]bool)}
}

// addResults tallies one batch round-trip's outcomes and audits the
// one-time indexes of the issued tokens for duplicates.
func (a *e2eAgg) addResults(requests int, res []ts.Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts.TokenRequests += requests
	for _, r := range res {
		if r.Err != nil {
			a.counts.TokensDenied++
			continue
		}
		a.counts.TokensIssued++
		if !r.Token.OneTime() {
			continue
		}
		if a.oneTime[r.Token.Index] {
			a.counts.DupOneTimeIndexes++
		}
		a.oneTime[r.Token.Index] = true
	}
}

// tokenRequests reads the request-slot count so far; the chaos fault
// scheduler polls it to find the middle of the rush.
func (a *e2eAgg) tokenRequests() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts.TokenRequests
}

func (a *e2eAgg) recordRead(ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ok {
		a.counts.ReadsOK++
	} else {
		a.counts.ReadsFailed++
	}
}

// recordTx classifies one committed batch slot. Rejections only count
// toward their attack class when the chain reported exactly the expected
// reason, so a drift in rejection semantics shows up as an envelope
// mismatch even though the transaction was still rejected.
func (a *e2eAgg) recordTx(op *e2eOp, res evm.BatchResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts.TxSubmitted++
	err := res.Err
	accepted := false
	if err == nil {
		accepted = res.Receipt.Status
		if !accepted {
			err = res.Receipt.Err
		}
	}
	if accepted {
		switch op.class {
		case opWrite, opReplayFirst:
			a.counts.TxAccepted++
		default:
			a.counts.AdvAccepted++
		}
		return
	}
	a.counts.TxRejected++
	switch op.class {
	case opTampered:
		if errors.Is(err, core.ErrBadTokenSig) {
			a.counts.RejTampered++
		}
	case opReplay:
		if errors.Is(err, core.ErrTokenUsed) {
			a.counts.RejReplayed++
		}
	case opExpired:
		if errors.Is(err, core.ErrTokenExpired) {
			a.counts.RejExpired++
		}
	}
}

// e2eEnv is one incarnation of a scenario's assembled world: the chain
// with its deployed SMACS-enabled targets, the HTTP Token Service
// frontends, and the submission pipeline.
type e2eEnv struct {
	cfg     ScenarioConfig // Ops is this incarnation's share
	chain   *evm.Chain
	targets []types.Address

	client        *tshttp.Client // main Token Service
	expiredClient *tshttp.Client // negative-lifetime frontend (expired attacks)

	// extra are issuing frontends a mid-run membership join added; honest
	// clients re-resolve their frontend per token batch, round-robining
	// across the main client and these the moment the join lands.
	extraMu sync.Mutex
	extra   []*tshttp.Client
	rr      int

	agg     *e2eAgg
	sub     chan *e2eOp
	subDone chan struct{}
	drained sync.Once

	stopFault func() bool    // the chaos fault scheduler's stop, if any
	closers   []func()       // frontends and the joiner's servers, stopped LIFO
	counter   *stack.Counter // closed at the end, abandoned by a crash
	stores    []*store.File  // durable stores: likewise
}

// addClient brings a newly joined frontend into the honest rotation.
func (e *e2eEnv) addClient(cl *tshttp.Client) {
	e.extraMu.Lock()
	defer e.extraMu.Unlock()
	e.extra = append(e.extra, cl)
}

// honestClient picks the frontend for one honest token batch: the main
// client until a join adds more, then round-robin over all of them.
func (e *e2eEnv) honestClient() *tshttp.Client {
	e.extraMu.Lock()
	defer e.extraMu.Unlock()
	if len(e.extra) == 0 {
		return e.client
	}
	e.rr++
	if pick := e.rr % (len(e.extra) + 1); pick > 0 {
		return e.extra[pick-1]
	}
	return e.client
}

// allClients lists every issuing frontend the run used, for the
// server-stats cross-check.
func (e *e2eEnv) allClients() []*tshttp.Client {
	e.extraMu.Lock()
	defer e.extraMu.Unlock()
	out := []*tshttp.Client{e.client, e.expiredClient}
	return append(out, e.extra...)
}

// serve stands a Token Service frontend up on a loopback listener that
// shutdown stops, and returns a client for it.
func (e *e2eEnv) serve(c ts.Config) (*tshttp.Client, error) {
	svc, err := ts.New(c)
	if err != nil {
		return nil, err
	}
	base, stop, err := startServer(svc, c.Metrics)
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, stop)
	return tshttp.NewClient(base, ""), nil
}

// listen binds a loopback listener that shutdown closes.
func (e *e2eEnv) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { _ = ln.Close() })
	return ln, nil
}

// openStore opens a file-backed store that shutdown closes, or a crash
// abandons.
func (e *e2eEnv) openStore(dir string, reg *metrics.Registry) (*store.File, error) {
	f, err := store.OpenFile(dir, store.FileOptions{Metrics: reg})
	if err != nil {
		return nil, err
	}
	e.stores = append(e.stores, f)
	return f, nil
}

// drain closes the submission pipeline and waits until every queued
// transaction has executed; only the first call does anything.
func (e *e2eEnv) drain() {
	e.drained.Do(func() {
		close(e.sub)
		if e.subDone != nil {
			<-e.subDone
		}
	})
}

// shutdown drains the incarnation, stops its fault scheduler and its
// frontends, and closes its stores, returning the stores' Close error so
// the final flush is checked too. A crash leaves the stores open, the
// state a kill -9 leaves behind: the next open must cope with whatever
// their WALs hold.
func (e *e2eEnv) shutdown(crash bool) error {
	e.drain()
	if e.stopFault != nil {
		e.stopFault()
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	if crash {
		return nil
	}
	var errs []error
	if e.counter != nil {
		errs = append(errs, e.counter.Close(false))
	}
	for _, f := range e.stores {
		errs = append(errs, f.Close())
	}
	return errors.Join(errs...)
}

// shardedCounterShards and shardedCounterBlock configure the one-time
// index counter: 4 shards leasing 32-index blocks, a spread of 128 the
// bitmap sizing budgets for.
const (
	shardedCounterShards = 4
	shardedCounterBlock  = 32
	e2eBitmapSlack       = 64
	e2eGasLimit          = 4_000_000
	e2eGasPrice          = 1
)

// startServer exposes svc on a loopback listener and returns its base URL
// and a shutdown function. The frontend's HTTP series land on reg, the
// same registry the wrapped service reports to.
func startServer(svc *ts.Service, reg *metrics.Registry) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: tshttp.NewServerWithOptions(svc, "", tshttp.ServerOptions{Registry: reg}).Handler()}
	go func() { _ = srv.Serve(l) }()
	return "http://" + l.Addr().String(), func() { _ = srv.Close() }, nil
}

// runScenario runs one scenario. Its world is assembled in one place and
// built once per incarnation by open; a Durable scenario runs two
// incarnations with the crash between them (see durable.go), every other
// scenario one.
func runScenario(cfg ScenarioConfig, run E2EConfig) (E2ERow, error) {
	if cfg.Clients < 1 || cfg.Ops < 1 {
		return E2ERow{}, fmt.Errorf("scenario needs clients and ops, got %d×%d", cfg.Clients, cfg.Ops)
	}
	if cfg.TokenBatch < 1 {
		cfg.TokenBatch = 8
	}
	if cfg.TxBatch < 1 {
		cfg.TxBatch = 16
	}
	depth := cfg.ChainDepth
	if cfg.Workload != WorkloadChain {
		depth = 1
	}
	if depth > 1 && cfg.TamperedOps+cfg.ReplayedOps+cfg.ExpiredOps > 0 {
		return E2ERow{}, fmt.Errorf("adversarial ops are only supported on single-target workloads")
	}
	if cfg.Chaos != "" {
		if err := checkChaos(cfg.Chaos); err != nil {
			return E2ERow{}, err
		}
	}
	quorum := cfg.Chaos != "" || cfg.ReplicatedCounter
	phases := []int{cfg.Ops}
	if cfg.Durable {
		if quorum {
			return E2ERow{}, fmt.Errorf("the durable scenario runs on file-backed stores, not a replica quorum")
		}
		if cfg.Ops < 2 || cfg.ReplayedOps < 1 {
			return E2ERow{}, fmt.Errorf("durable scenario needs ≥2 ops and replayed ops (replay after recovery is its core assertion), got %d and %d",
				cfg.Ops, cfg.ReplayedOps)
		}
		phases = []int{(cfg.Ops + 1) / 2, cfg.Ops / 2}
	}

	// Every store of the scenario (replica WALs, the durable counter and
	// chain) lives in its own directory under run.Dir, or in a temp
	// directory removed afterwards.
	dir := filepath.Join(run.Dir, cfg.Name)
	if run.Dir == "" {
		tmp, err := os.MkdirTemp("", "smacs-e2e-*")
		if err != nil {
			return E2ERow{}, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// Keys: the Token Service, the honest clients, the denied clients,
	// and one attacker wallet per adversarial class.
	tsKey := secp256k1.PrivateKeyFromSeed([]byte("e2e ts key " + cfg.Name))
	seedKey := func(role string, i int) *secp256k1.PrivateKey {
		return secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("e2e %s %s %d", cfg.Name, role, i)))
	}
	honest := make([]*secp256k1.PrivateKey, cfg.Clients)
	for i := range honest {
		honest[i] = seedKey("client", i)
	}
	denied := make([]*secp256k1.PrivateKey, cfg.DeniedClients)
	for i := range denied {
		denied[i] = seedKey("denied", i)
	}
	tamperKey := seedKey("tamper", 0)
	replayKey := seedKey("replay", 0)
	expireKey := seedKey("expire", 0)
	owner := seedKey("owner", 0)

	// ACRs: a sender whitelist admitting honest clients and attackers
	// (attackers model insiders abusing legitimately issued tokens);
	// denied clients stay off the list and must be rejected at the TS.
	allowed := slices.Concat(honest, []*secp256k1.PrivateKey{tamperKey, replayKey, expireKey})
	whitelist := rules.NewList(rules.Whitelist)
	for _, k := range allowed {
		whitelist.Add(core.ValueKey(k.Address()))
	}
	ruleSet := rules.NewRuleSet()
	ruleSet.SetSenderList(whitelist)

	// Every component of this scenario, in every incarnation, reports to
	// one isolated registry: issuance, HTTP transport, stores and chain,
	// so the stats cross-check below sees exactly this scenario's
	// traffic, the way a restarted daemon keeps scraping to the same
	// Prometheus.
	reg := metrics.NewRegistry()
	agg := newE2EAgg()

	// A 3-replica quorum (§ VII-B): WAL-backed replicas on loopback
	// behind proxies that pass traffic through until a chaos fault is
	// injected.
	var group *quorumGroup
	if quorum {
		g, err := startQuorumGroup(dir)
		if err != nil {
			return E2ERow{}, err
		}
		defer g.Close()
		group = g
	}

	// boot deploys the SMACS-enabled targets and funds the whitelisted
	// wallets. It is deterministic (same keys, same deploy order, same
	// addresses), so a recovering chain re-registers the contracts' Go
	// handlers before its snapshot restores their storage.
	var targets []types.Address
	boot := func(ch *evm.Chain, verifier *core.Verifier) error {
		deploy := func(c *evm.Contract) (types.Address, error) {
			addr, _, err := ch.Deploy(owner.Address(), c)
			return addr, err
		}
		enable := func(c *evm.Contract) *evm.Contract { return transform.Enable(c, verifier) }
		var err error
		switch cfg.Workload {
		case WorkloadStorage:
			targets = make([]types.Address, 1)
			targets[0], err = deploy(enable(contracts.NewSimpleStorage()))
		case WorkloadSale:
			targets = make([]types.Address, 1)
			targets[0], err = deploy(enable(contracts.NewTokenSale(100)))
		case WorkloadChain:
			targets, err = contracts.BuildChain(deploy, depth, enable)
		default:
			err = fmt.Errorf("unknown workload %q", cfg.Workload)
		}
		if err != nil {
			return err
		}
		for _, k := range allowed {
			ch.Fund(k.Address(), ether(1000))
		}
		return nil
	}
	oneTimeTokens := cfg.ReplayedOps
	if cfg.OneTime {
		oneTimeTokens += cfg.Clients * cfg.Ops * depth
	}

	// open builds one incarnation running phaseOps of every client's ops:
	// the one-time counter, the chain, the submitter, the frontends, and
	// the chaos fault's arming.
	open := func(phaseOps int) (_ *e2eEnv, err error) {
		env := &e2eEnv{cfg: cfg, agg: agg, sub: make(chan *e2eOp, 4*cfg.TxBatch)}
		env.cfg.Ops = phaseOps
		defer func() {
			if err != nil {
				_ = env.shutdown(false)
			}
		}()

		// The one-time counter: file-backed and recovered from its WAL
		// (durable), over the quorum group, or local. ChaosJoin stripes
		// group A's blocks under a membership view, with its manager's
		// listener bound first, so a second group can join mid-rush;
		// ChaosFrontendCrash wraps the sharded counter in a switch so the
		// takeover can swap in a fresh incarnation mid-traffic.
		counterCfg := stack.Config{Shards: shardedCounterShards, Block: shardedCounterBlock, Registry: reg}
		var lnA net.Listener
		switch {
		case cfg.Durable:
			counterCfg.Dir, counterCfg.SnapshotEvery = filepath.Join(dir, "ts"), durableCounterSnapEvery
		case cfg.Chaos == ChaosJoin:
			if lnA, err = env.listen(); err != nil {
				return nil, err
			}
			counterCfg = group.memberConfig(reg, chaosGroupA, lnA)
		case quorum:
			counterCfg = group.counterConfig(reg)
		}
		if env.counter, err = stack.Open(counterCfg); err != nil {
			return nil, err
		}
		counter := env.counter.ShardedCounter
		svcCounter := ts.Counter(counter)
		var crashSwitch *switchCounter
		if cfg.Chaos == ChaosFrontendCrash {
			crashSwitch = newSwitchCounter(counter)
			svcCounter = crashSwitch
		}

		// One-time tokens need the verifier to carry a bitmap sized for
		// every index the run can issue plus the counter's spread, once
		// per incarnation: a crash burns at most one spread of leases.
		verifier := core.NewVerifier(tsKey.Address())
		if oneTimeTokens > 0 {
			spread := int(counter.MaxSpread()) * len(phases)
			if cfg.Chaos == ChaosJoin || cfg.Chaos == ChaosFrontendCrash {
				// The membership faults widen the live index window: a second
				// frontend's in-flight blocks (join), or the crashed
				// incarnation's burned remainders plus the takeover's fresh
				// leases (frontend-crash).
				spread *= 3
			}
			bm, err := core.NewBitmap(oneTimeTokens+spread+e2eBitmapSlack, 1<<32)
			if err != nil {
				return nil, err
			}
			verifier.WithBitmap(bm)
		}
		chainCfg := evm.DefaultConfig()
		chainCfg.Metrics = reg
		bootChain := func(ch *evm.Chain) error { return boot(ch, verifier) }
		if cfg.Durable {
			f, err := env.openStore(filepath.Join(dir, "chain"), reg)
			if err != nil {
				return nil, err
			}
			if env.chain, err = evm.RecoverChain(chainCfg, f, durableChainSnapEvery, bootChain); err != nil {
				return nil, fmt.Errorf("recover chain: %w", err)
			}
		} else {
			env.chain = evm.NewChain(chainCfg)
			if err := bootChain(env.chain); err != nil {
				return nil, err
			}
		}
		env.targets = targets
		env.subDone = env.startSubmitter(tsKey.Address())

		svcCfg := ts.Config{Key: tsKey, Rules: ruleSet, Counter: svcCounter, RequireProof: cfg.RequireProof, Metrics: reg}
		if env.client, err = env.serve(svcCfg); err != nil {
			return nil, err
		}
		if cfg.ExpiredOps > 0 {
			// A second frontend sharing skTS but configured with a negative
			// lifetime issues already-expired tokens through the full HTTP
			// path: the deterministic source of the expired-token attack.
			expiredCfg := svcCfg
			expiredCfg.Counter, expiredCfg.Lifetime = nil, -time.Hour
			if env.expiredClient, err = env.serve(expiredCfg); err != nil {
				return nil, err
			}
		}

		// Membership faults need their action armed before the scheduler
		// starts: the join scenario stands its second frontend up now, the
		// frontend-crash scenario binds the takeover closure. The fault
		// scheduler watches the aggregate's progress and fires and heals
		// the fault mid-rush.
		switch cfg.Chaos {
		case ChaosJoin:
			if err := armJoin(group, env, svcCfg, lnA, env.counter.Manager); err != nil {
				return nil, err
			}
		case ChaosFrontendCrash:
			armFrontendCrash(group, crashSwitch, reg)
		}
		if cfg.Chaos != "" {
			env.stopFault = group.scheduleFault(cfg, run.ChaosSeed, agg)
		}
		return env, nil
	}

	// phase runs incarnation i: honest and denied clients run their share
	// of ops in every phase, the tamper and expire attackers and the
	// replay wallet's first uses in the first, the replays in the last.
	// The last phase closes the stores; an earlier one abandons them.
	var spent [][]byte // the replay wallet's first-use entries
	var height, replayNonce uint64
	faultInjected := false
	phase := func(i int) (err error) {
		first, last := i == 0, i == len(phases)-1
		env, err := open(phases[i])
		if err != nil {
			return err
		}
		defer func() {
			if cerr := env.shutdown(!last); err == nil {
				err = cerr
			}
		}()
		if !first {
			// Every outcome counted before the crash was durable before it
			// was counted (a lease Append, and the one AppendBatch behind
			// each chain Execute, return only once their records are
			// fsynced), so recovery owes all of it back.
			if h := env.chain.Height(); h != height {
				return fmt.Errorf("recovered chain height %d, committed %d before the crash", h, height)
			}
			if n := env.chain.NonceOf(replayKey.Address()); n != replayNonce {
				return fmt.Errorf("recovered replay-wallet nonce %d, want %d: committed txs lost", n, replayNonce)
			}
		}

		// Producers: honest clients, denied clients, and the attacker
		// wallets all run concurrently against the live HTTP service.
		var producers []func() error
		for _, k := range honest {
			producers = append(producers, func() error { return env.runHonest(k) })
		}
		for _, k := range denied {
			producers = append(producers, func() error { return env.runDenied(k) })
		}
		attacker := func(key *secp256k1.PrivateKey, cl *tshttp.Client, n int, class opClass, mutate func(*core.Token)) {
			if first && n > 0 {
				producers = append(producers, func() error {
					_, err := env.attack(key, env.chain.NonceOf(key.Address()), cl, n, class, mutate)
					return err
				})
			}
		}
		// A later expiry breaks the token's signature, not the expiry check.
		attacker(tamperKey, env.client, cfg.TamperedOps, opTampered,
			func(tk *core.Token) { tk.Expire = tk.Expire.Add(time.Hour) })
		attacker(expireKey, env.expiredClient, cfg.ExpiredOps, opExpired, nil)
		if cfg.ReplayedOps > 0 {
			producers = append(producers, func() error {
				nonce := env.chain.NonceOf(replayKey.Address())
				if first {
					var err error
					if spent, err = env.attack(replayKey, nonce, env.client, cfg.ReplayedOps, opReplayFirst, nil); err != nil {
						return err
					}
					nonce += uint64(len(spent))
				}
				if !last {
					return nil
				}
				// The bitmap must reject every replay with ErrTokenUsed.
				for _, entry := range spent {
					if err := env.submit(replayKey, nonce, entry, opReplay); err != nil {
						return err
					}
					nonce++
				}
				return nil
			})
		}
		err = runConcurrently(producers)
		env.drain()
		if env.stopFault != nil {
			faultInjected = env.stopFault()
		}
		if err != nil {
			return err
		}
		if cfg.Chaos != "" {
			if err := group.FireErr(); err != nil {
				return fmt.Errorf("chaos %s action: %w", cfg.Chaos, err)
			}
		}

		// Cross-check the server-side stats over the same HTTP interface
		// the clients used, before the frontends go down.
		for _, cl := range env.allClients() {
			if cl == nil {
				continue
			}
			if err := agg.addServerStats(cl); err != nil {
				return err
			}
		}
		height, replayNonce = env.chain.Height(), env.chain.NonceOf(replayKey.Address())
		return nil
	}
	for i := range phases {
		if err := phase(i); err != nil {
			return E2ERow{}, err
		}
	}

	// One source of truth: the /v1/stats counters (per-frontend atomics)
	// must agree with the registry's issuance series, aggregated over
	// every frontend of every incarnation.
	if err := checkRegistryStats(reg, agg); err != nil {
		return E2ERow{}, err
	}
	return E2ERow{
		Scenario:           cfg.Name,
		Clients:            cfg.Clients,
		OpsPerClient:       cfg.Ops,
		ChaosFaultInjected: faultInjected,
		Counts:             agg.counts,
	}, nil
}

// runConcurrently runs every producer in its own goroutine and joins
// their errors.
func runConcurrently(producers []func() error) error {
	errs := make([]error, len(producers))
	var wg sync.WaitGroup
	for i, p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkRegistryStats asserts that the registry-level issuance counters
// (summed over every frontend reporting to reg) match the /v1/stats
// totals the harness collected over HTTP, and that the issuance
// histogram observed every one of those requests — one pipeline, three
// views, no drift.
func checkRegistryStats(reg *metrics.Registry, agg *e2eAgg) error {
	issued, denied := ts.RegistryStats(reg)
	observed := reg.Histogram(ts.MetricIssueSeconds, "", nil).Count()
	agg.mu.Lock()
	defer agg.mu.Unlock()
	c := agg.counts
	if int(issued) != c.TSIssued || int(denied) != c.TSRejected {
		return fmt.Errorf("registry issuance series (%d issued, %d denied) disagree with /v1/stats (%d, %d)",
			issued, denied, c.TSIssued, c.TSRejected)
	}
	if int(observed) != c.TSIssued+c.TSRejected {
		return fmt.Errorf("%s observed %d requests, /v1/stats saw %d",
			ts.MetricIssueSeconds, observed, c.TSIssued+c.TSRejected)
	}
	return nil
}

// startSubmitter launches the batch submitter draining e.sub into
// optimistic Chain.Execute calls of TxBatch transactions, with batched
// token-signature prevalidation in the parallel pool outside the chain
// mutex. It returns the channel closed when e.sub has been closed and
// fully drained.
func (e *e2eEnv) startSubmitter(tsAddr types.Address) chan struct{} {
	hook := core.BatchTokenPrehook(tsAddr, e.chain.Config().ChainID)
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		pending := make([]*e2eOp, 0, e.cfg.TxBatch)
		flush := func() {
			if len(pending) == 0 {
				return
			}
			txs := make([]*evm.Transaction, len(pending))
			for i, op := range pending {
				txs[i] = op.tx
			}
			results := e.chain.Execute(txs, evm.ExecOptions{
				Scheduler:        evm.SchedulerOptimistic,
				PrevalidateBatch: hook,
			})
			for i, res := range results {
				e.agg.recordTx(pending[i], res)
			}
			pending = pending[:0]
		}
		for op := range e.sub {
			pending = append(pending, op)
			if len(pending) >= e.cfg.TxBatch {
				flush()
			}
		}
		flush()
	}()
	return subDone
}

// addServerStats folds one Token Service frontend's /v1/stats counters
// into the aggregate, so the envelope cross-checks the server's view
// against the client-observed outcomes.
func (a *e2eAgg) addServerStats(cl *tshttp.Client) error {
	st, err := cl.Stats()
	if err != nil {
		return fmt.Errorf("fetch /v1/stats: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts.TSIssued += int(st.Issued)
	a.counts.TSRejected += int(st.Rejected)
	return nil
}

// opRequests builds the token requests one operation needs: one per
// SMACS-enabled contract in the triggered call chain.
func (e *e2eEnv) opRequests(sender types.Address, read bool) []*core.Request {
	reqs := make([]*core.Request, 0, len(e.targets))
	for _, target := range e.targets {
		req := &core.Request{
			Type:     e.cfg.TokenType,
			Contract: target,
			Sender:   sender,
			OneTime:  e.cfg.OneTime,
		}
		if e.cfg.TokenType != core.SuperType {
			switch {
			case e.cfg.Workload == WorkloadChain:
				req.Method = "relay(uint256,string)"
			case e.cfg.Workload == WorkloadSale:
				req.Method = "buy()"
			case read:
				req.Method = "get()"
			default:
				req.Method = "set(uint256)"
			}
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// fetchTokens signs proofs of possession when the scenario demands them,
// submits the batch over HTTP, and tallies the per-slot outcomes.
func (e *e2eEnv) fetchTokens(cl *tshttp.Client, key *secp256k1.PrivateKey, reqs []*core.Request) ([]ts.Result, error) {
	if e.cfg.RequireProof {
		for _, req := range reqs {
			if err := core.SignRequest(req, key); err != nil {
				return nil, err
			}
		}
	}
	res, err := cl.RequestTokens(reqs)
	if err != nil {
		return nil, err
	}
	e.agg.addResults(len(reqs), res)
	return res, nil
}

// buildTx signs one guarded write transaction carrying the token entries.
func (e *e2eEnv) buildTx(key *secp256k1.PrivateKey, nonce uint64, entries [][]byte) (*evm.Transaction, error) {
	tx := &evm.Transaction{
		Nonce:    nonce,
		To:       e.targets[0],
		Value:    new(big.Int),
		GasLimit: e2eGasLimit,
		GasPrice: big.NewInt(e2eGasPrice),
		Tokens:   entries,
	}
	switch e.cfg.Workload {
	case WorkloadSale:
		tx.Method = "buy"
		tx.Value = big.NewInt(5)
	case WorkloadChain:
		tx.Method = "relay"
		tx.Args = []any{uint64(0), "e2e"}
	default:
		tx.Method = "set"
		tx.Args = []any{uint64(nonce)}
	}
	if err := evm.SignTx(tx, key, e.chain.Config().ChainID); err != nil {
		return nil, err
	}
	return tx, nil
}

// entriesFor tags each issued token with its target contract, failing on
// any denied slot (callers that expect denials never use it).
func (e *e2eEnv) entriesFor(slot []ts.Result) ([][]byte, error) {
	entries := make([][]byte, len(slot))
	for i, r := range slot {
		if r.Err != nil {
			return nil, fmt.Errorf("unexpected token denial: %w", r.Err)
		}
		entries[i] = core.EncodeEntry(e.targets[i], r.Token)
	}
	return entries, nil
}

// runHonest drives one honest client: fetch tokens for a window of ops in
// one round-trip, then submit the guarded write (or run the guarded read)
// for each op.
func (e *e2eEnv) runHonest(key *secp256k1.PrivateKey) error {
	perOp := len(e.targets)
	// Resuming from the chain's view of the nonce (instead of 0) lets the
	// durable scenario re-run a client against a recovered chain.
	nonce := e.chain.NonceOf(key.Address())
	for off := 0; off < e.cfg.Ops; off += e.cfg.TokenBatch {
		n := min(e.cfg.TokenBatch, e.cfg.Ops-off)
		reads := make([]bool, n)
		reqs := make([]*core.Request, 0, n*perOp)
		for j := 0; j < n; j++ {
			reads[j] = e.cfg.ReadEvery > 0 && (off+j+1)%e.cfg.ReadEvery == 0
			reqs = append(reqs, e.opRequests(key.Address(), reads[j])...)
		}
		// Re-resolve the frontend per batch: once a membership join adds
		// a second issuing frontend mid-run, honest traffic immediately
		// starts spreading across the whole group.
		res, err := e.fetchTokens(e.honestClient(), key, reqs)
		if err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			entries, err := e.entriesFor(res[j*perOp : (j+1)*perOp])
			if err != nil {
				return err
			}
			if reads[j] {
				_, rec, _ := e.chain.StaticCall(key.Address(), e.targets[0], "get", nil, entries)
				e.agg.recordRead(rec != nil && rec.Status)
				continue
			}
			tx, err := e.buildTx(key, nonce, entries)
			if err != nil {
				return err
			}
			nonce++
			e.sub <- &e2eOp{class: opWrite, tx: tx}
		}
	}
	return nil
}

// runDenied drives one non-whitelisted client: every token request must be
// rejected by the Token Service, so no transaction is ever built. The
// outcome lands in the TokensDenied/TSRejected counts the envelope pins.
func (e *e2eEnv) runDenied(key *secp256k1.PrivateKey) error {
	for off := 0; off < e.cfg.Ops; off += e.cfg.TokenBatch {
		n := min(e.cfg.TokenBatch, e.cfg.Ops-off)
		reqs := make([]*core.Request, 0, n)
		for j := 0; j < n; j++ {
			reqs = append(reqs, e.opRequests(key.Address(), false)[:1]...)
		}
		if _, err := e.fetchTokens(e.client, key, reqs); err != nil {
			return err
		}
	}
	return nil
}

// attack drives one attacker wallet from nonce: n single-token requests,
// fetched from cl in TokenBatch windows, each issued token passed through
// mutate (when set) and submitted as one transaction under class. It
// returns the submitted entries, for a replay's second use.
func (e *e2eEnv) attack(key *secp256k1.PrivateKey, nonce uint64, cl *tshttp.Client, n int,
	class opClass, mutate func(*core.Token)) ([][]byte, error) {
	entries := make([][]byte, 0, n)
	for off := 0; off < n; off += e.cfg.TokenBatch {
		reqs := make([]*core.Request, min(e.cfg.TokenBatch, n-off))
		for j := range reqs {
			reqs[j] = e.opRequests(key.Address(), false)[0]
			// A replay needs an index the bitmap remembers as spent.
			reqs[j].OneTime = reqs[j].OneTime || class == opReplayFirst
		}
		res, err := e.fetchTokens(cl, key, reqs)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("attacker %s should be whitelisted: %w", key.Address().Hex(), r.Err)
			}
			if mutate != nil {
				mutate(&r.Token)
			}
			entry := core.EncodeEntry(e.targets[0], r.Token)
			if err := e.submit(key, nonce, entry, class); err != nil {
				return nil, err
			}
			nonce++
			entries = append(entries, entry)
		}
	}
	return entries, nil
}

// submit signs one single-token transaction and queues it under class.
func (e *e2eEnv) submit(key *secp256k1.PrivateKey, nonce uint64, entry []byte, class opClass) error {
	tx, err := e.buildTx(key, nonce, [][]byte{entry})
	if err != nil {
		return err
	}
	e.sub <- &e2eOp{class: class, tx: tx}
	return nil
}

// Format renders the run as the end-to-end scenario table of
// docs/BENCHMARKS.md: one row of exact correctness counts per scenario.
func (r *E2EResult) Format() string {
	var b strings.Builder
	b.WriteString("End-to-end scenarios: real HTTP Token Service → wallet clients → Chain.Execute\n")
	b.WriteString("Correctness counts (exact; pinned by out/e2e-envelope.json in CI):\n")
	fmt.Fprintf(&b, "  %-20s %7s %4s %14s %10s %9s %21s %4s %4s %5s\n", "scenario", "clients", "ops",
		"tokens iss/den", "tx acc/rej", "reads ok", "rejected tamp/rep/exp", "adv", "dup", "fault")
	pair := func(a, b int) string { return fmt.Sprintf("%d/%d", a, b) }
	for _, row := range r.Rows {
		c := row.Counts
		fault := "-"
		if row.ChaosFaultInjected {
			fault = "fired"
		}
		fmt.Fprintf(&b, "  %-20s %7d %4d %14s %10s %9s %21s %4d %4d %5s\n",
			row.Scenario, row.Clients, row.OpsPerClient,
			pair(c.TokensIssued, c.TokensDenied), pair(c.TxAccepted, c.TxRejected), pair(c.ReadsOK, c.ReadsFailed),
			fmt.Sprintf("%d/%d/%d", c.RejTampered, c.RejReplayed, c.RejExpired),
			c.AdvAccepted, c.DupOneTimeIndexes, fault)
	}
	return b.String()
}

// Envelope is the CI regression gate: the exact correctness counts of a
// run, checked into out/e2e-envelope.json.
type Envelope struct {
	// Scenarios maps scenario name to its pinned counts.
	Scenarios map[string]E2ECounts `json:"scenarios"`
}

// Envelope captures the run's counts as an envelope.
func (r *E2EResult) Envelope() *Envelope {
	env := &Envelope{Scenarios: make(map[string]E2ECounts, len(r.Rows))}
	for _, row := range r.Rows {
		env.Scenarios[row.Scenario] = row.Counts
	}
	return env
}

// CheckEnvelope compares the run's correctness counts against a pinned
// envelope and returns a field-level description of every drift. A chaos
// scenario whose fault never fired is a drift too: a fault-free run
// matches the pinned counts by design, so they would prove nothing. A
// result covering every shipped scenario additionally requires the
// envelope to contain exactly that scenario set.
func (r *E2EResult) CheckEnvelope(env *Envelope) error {
	var diffs []string
	ran := make(map[string]bool, len(r.Rows))
	for _, row := range r.Rows {
		ran[row.Scenario] = true
		if cfg, err := ScenarioByName(row.Scenario); err == nil && cfg.Chaos != "" && !row.ChaosFaultInjected {
			diffs = append(diffs, fmt.Sprintf("scenario %q: the %s fault never fired", row.Scenario, cfg.Chaos))
		}
		want, ok := env.Scenarios[row.Scenario]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("scenario %q missing from envelope", row.Scenario))
			continue
		}
		if want != row.Counts {
			got, _ := json.Marshal(row.Counts)
			exp, _ := json.Marshal(want)
			diffs = append(diffs, fmt.Sprintf("scenario %q counts drifted:\n  want %s\n  got  %s",
				row.Scenario, exp, got))
		}
	}
	if len(ran) == len(ScenarioNames()) {
		for name := range env.Scenarios {
			if !ran[name] {
				diffs = append(diffs, fmt.Sprintf("envelope pins scenario %q that no longer runs", name))
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("e2e envelope mismatch:\n%s", strings.Join(diffs, "\n"))
	}
	return nil
}
