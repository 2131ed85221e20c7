package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/transform"
	"repro/internal/ts"
	"repro/internal/ts/ring"
	"repro/internal/tshttp"
	"repro/internal/types"
)

// E2EConfig parameterizes the end-to-end scenario harness.
type E2EConfig struct {
	// Scenarios restricts the run (nil = every profile of ScenarioNames).
	Scenarios []string `json:"scenarios,omitempty"`
	// Smoke selects the small deterministic sizing the CI envelope pins.
	Smoke bool `json:"smoke"`
	// Dir is where the durable scenario keeps its file-backed stores and
	// the quorum-backed scenarios their replica WALs, one subdirectory per
	// scenario (empty: a fresh temp dir, removed afterwards).
	Dir string `json:"dir,omitempty"`
	// FsyncBatch is the group-commit batch of those file stores (0: the
	// store default).
	FsyncBatch int `json:"fsyncBatch,omitempty"`
	// OnRow, when non-nil, observes every completed scenario row in run
	// order; smacs-bench uses it to flush partial results on SIGINT.
	OnRow func(E2ERow) `json:"-"`
	// Tracer, when non-nil, receives per-operation pipeline spans
	// (token-acquisition round-trip, submit-to-commit) keyed by
	// "<scenario>/<sender>#<op>"; smacs-bench -trace dumps it as JSON.
	Tracer *metrics.Tracer `json:"-"`
	// ChaosSeed varies the fault timing of chaos scenarios: the victim
	// replica and the inject/heal progress thresholds derive from it, so
	// CI can sweep timings while any single run stays reproducible. The
	// correctness counts must be seed-independent — that is the point.
	ChaosSeed int64 `json:"chaosSeed,omitempty"`
}

// E2ECounts are the correctness counts of one scenario run. Every field is
// deterministic for a given ScenarioConfig, so the whole struct is compared
// exactly against the CI envelope; throughput and latency live in E2ERow
// and are advisory-only.
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

// StageLatency summarizes one pipeline stage's latency histogram.
// Percentiles are nearest-rank over fixed buckets (capped at the observed
// maximum), so they are advisory like every latency number here.
type StageLatency struct {
	Count     uint64  `json:"count"`
	P50Millis float64 `json:"p50Millis"`
	P95Millis float64 `json:"p95Millis"`
	P99Millis float64 `json:"p99Millis"`
	MaxMillis float64 `json:"maxMillis"`
}

// E2ERow is one scenario's measurement: exact correctness counts plus
// advisory throughput and end-to-end latency percentiles. Latency is
// measured per operation from the start of its token-acquisition
// round-trip to the commit of its transaction (or completion of its
// static call), and sourced from the scenario's isolated metrics
// registry — the same histograms GET /metrics would expose.
type E2ERow struct {
	Scenario     string  `json:"scenario"`
	Clients      int     `json:"clients"`
	OpsPerClient int     `json:"opsPerClient"`
	Seconds      float64 `json:"seconds"`
	TokensPerSec float64 `json:"tokensPerSec"`
	TxPerSec     float64 `json:"txPerSec"`
	P50Millis    float64 `json:"p50Millis"`
	P95Millis    float64 `json:"p95Millis"`
	P99Millis    float64 `json:"p99Millis"`

	// Stages breaks the pipeline down: "issue" (TS-side issuance),
	// "http_tokens" (POST /v1/tokens service time), "prevalidate" and
	// "commit" (optimistic Execute phases, per batch), "e2e" (per
	// operation).
	Stages map[string]StageLatency `json:"stages,omitempty"`
	// ChaosFaultInjected reports that the scenario's replica fault
	// actually fired (chaos scenarios only) — a guard against a run so
	// fast the fault scheduler never got to act, which would make the
	// pinned counts vacuous.
	ChaosFaultInjected bool `json:"chaosFaultInjected,omitempty"`
	// SenderCacheHitRate / TokenCacheHitRate are the process-wide
	// recovery caches' hit fractions over this scenario's traffic
	// (measured as before/after deltas; 0 when the scenario made no
	// lookups).
	SenderCacheHitRate float64 `json:"senderCacheHitRate"`
	TokenCacheHitRate  float64 `json:"tokenCacheHitRate"`

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
// accept/reject counts alongside throughput and latency.
func E2E(cfg E2EConfig) (*E2EResult, error) {
	scenarios, err := ScenariosFor(cfg.Scenarios, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	res := &E2EResult{Config: cfg}
	for _, sc := range scenarios {
		var row E2ERow
		if sc.Durable {
			row, err = runDurable(sc, cfg)
		} else {
			row, err = runScenario(sc, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("e2e %s: %w", sc.Name, err)
		}
		res.Rows = append(res.Rows, row)
		if cfg.OnRow != nil {
			cfg.OnRow(row)
		}
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

// e2eOp is one in-flight guarded transaction with its end-to-end start
// time (the beginning of its token-acquisition round-trip). id is empty
// unless a Tracer is attached.
type e2eOp struct {
	class opClass
	tx    *evm.Transaction
	start time.Time
	id    string
}

// e2eAgg accumulates counts from concurrent clients and the batch
// submitter; end-to-end latency goes straight into a registry histogram,
// which finishRow later summarizes.
type e2eAgg struct {
	mu     sync.Mutex
	counts E2ECounts
	opLat  *metrics.Histogram
	// oneTime tracks every one-time counter index seen on an issued
	// token; a repeat increments DupOneTimeIndexes. The map lives on the
	// aggregate (not the env) so it spans every frontend and — for the
	// durable and chaos scenarios — every incarnation of the service.
	oneTime map[int64]bool
}

// e2eOpSeconds is the end-to-end operation latency series of the
// scenario registry.
const e2eOpSeconds = "e2e_op_seconds"

func newE2EAgg(reg *metrics.Registry) *e2eAgg {
	return &e2eAgg{
		opLat: reg.Histogram(e2eOpSeconds,
			"End-to-end operation latency: token acquisition through commit.", nil),
		oneTime: make(map[int64]bool),
	}
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

func (a *e2eAgg) recordRead(start time.Time, ok bool) {
	a.opLat.ObserveDuration(time.Since(start))
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
func (a *e2eAgg) recordTx(op *e2eOp, res evm.BatchResult, end time.Time) {
	a.opLat.ObserveDuration(end.Sub(op.start))
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

// e2eEnv is one scenario's assembled world: the chain with its deployed
// SMACS-enabled targets, the HTTP Token Service frontends, and the
// submission pipeline.
type e2eEnv struct {
	cfg     ScenarioConfig
	chain   *evm.Chain
	targets []types.Address
	gasPrc  *big.Int

	client        *tshttp.Client // main Token Service
	expiredClient *tshttp.Client // negative-lifetime frontend (expired attacks)

	// extra are issuing frontends a mid-run membership join added; honest
	// clients re-resolve their frontend per token batch, round-robining
	// across the main client and these the moment the join lands.
	extraMu sync.Mutex
	extra   []*tshttp.Client
	rr      int

	agg    *e2eAgg
	sub    chan *e2eOp
	tracer *metrics.Tracer // nil unless E2EConfig.Tracer is set
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

// shardedCounterShards and shardedCounterBlock configure the one-time
// index counter: 4 shards leasing 32-index blocks, a spread of 128 the
// bitmap sizing budgets for.
const (
	shardedCounterShards = 4
	shardedCounterBlock  = 32
	e2eBitmapSlack       = 64
	e2eGasLimit          = 4_000_000
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

	// ACRs: a sender whitelist admitting honest clients and attackers
	// (attackers model insiders abusing legitimately issued tokens);
	// denied clients stay off the list and must be rejected at the TS.
	allowed := rules.NewList(rules.Whitelist)
	for _, k := range honest {
		allowed.Add(core.ValueKey(k.Address()))
	}
	for _, k := range []*secp256k1.PrivateKey{tamperKey, replayKey, expireKey} {
		allowed.Add(core.ValueKey(k.Address()))
	}
	ruleSet := rules.NewRuleSet()
	ruleSet.SetSenderList(allowed)

	// One-time index counter: sharded, optionally backed by a 3-replica
	// quorum (§ VII-B) — WAL-backed replicas on loopback behind proxies
	// that pass traffic through until a chaos fault is injected. The
	// membership faults add a layer each: ChaosJoin allocates through an
	// epoch-aware dynamic stripe so a second group can join mid-rush, and
	// ChaosFrontendCrash wraps the sharded counter in a switch so the
	// takeover can swap in a fresh incarnation mid-traffic.
	var underlying ts.Counter
	var group *quorumGroup
	var joinStripe *ring.DynamicStripe
	if cfg.Chaos != "" {
		if cfg.Durable {
			return E2ERow{}, fmt.Errorf("chaos scenarios run on a replica quorum, not the durable stores")
		}
		if err := checkChaos(cfg.Chaos); err != nil {
			return E2ERow{}, err
		}
	}
	if cfg.Chaos != "" || cfg.ReplicatedCounter {
		dir := ""
		if run.Dir != "" {
			dir = filepath.Join(run.Dir, cfg.Name)
		}
		g, err := startQuorumGroup(dir, run.FsyncBatch)
		if err != nil {
			return E2ERow{}, err
		}
		defer g.Close()
		group, underlying = g, g.coord
		if cfg.Chaos == ChaosJoin {
			joinStripe, err = ring.NewDynamicStripe(g.coord, chaosGroupA,
				ring.View{Epoch: 1, Groups: []string{chaosGroupA}}, 0)
			if err != nil {
				return E2ERow{}, err
			}
			underlying = joinStripe
		}
	}
	counter, err := ts.NewShardedCounter(underlying, shardedCounterShards, shardedCounterBlock)
	if err != nil {
		return E2ERow{}, err
	}
	svcCounter := ts.Counter(counter)
	var crashSwitch *switchCounter
	if cfg.Chaos == ChaosFrontendCrash {
		crashSwitch = newSwitchCounter(counter)
		svcCounter = crashSwitch
	}

	// Every component of this scenario reports to one isolated registry:
	// issuance, HTTP transport, chain, and the end-to-end histogram, so
	// the row's stage latencies and the stats cross-check below see
	// exactly this scenario's traffic.
	reg := metrics.NewRegistry()
	core.RegisterCacheMetrics(reg)
	senderH0, senderM0 := evm.SenderCacheStats()
	tokenH0, tokenM0 := core.TokenSigCacheStats()

	svc, err := ts.New(ts.Config{
		Key:          tsKey,
		Rules:        ruleSet,
		Counter:      svcCounter,
		RequireProof: cfg.RequireProof,
		Metrics:      reg,
	})
	if err != nil {
		return E2ERow{}, err
	}
	base, stop, err := startServer(svc, reg)
	if err != nil {
		return E2ERow{}, err
	}
	defer stop()

	env := &e2eEnv{
		cfg:    cfg,
		agg:    newE2EAgg(reg),
		sub:    make(chan *e2eOp, 4*cfg.TxBatch),
		client: tshttp.NewClient(base, ""),
		gasPrc: big.NewInt(1),
		tracer: run.Tracer,
	}

	// A second frontend sharing skTS but configured with a negative
	// lifetime issues already-expired tokens through the full HTTP path —
	// the deterministic source of the expired-token attack class.
	var expiredSvc *ts.Service
	if cfg.ExpiredOps > 0 {
		expiredSvc, err = ts.New(ts.Config{
			Key:          tsKey,
			Rules:        ruleSet,
			Lifetime:     -time.Hour,
			RequireProof: cfg.RequireProof,
			Metrics:      reg,
		})
		if err != nil {
			return E2ERow{}, err
		}
		expiredBase, stopExpired, err := startServer(expiredSvc, reg)
		if err != nil {
			return E2ERow{}, err
		}
		defer stopExpired()
		env.expiredClient = tshttp.NewClient(expiredBase, "")
	}

	// The chain and its SMACS-enabled targets. One-time tokens need the
	// verifier to carry a bitmap sized for every index the run can issue
	// plus the sharded counter's spread.
	chainCfg := evm.DefaultConfig()
	chainCfg.Metrics = reg
	env.chain = evm.NewChain(chainCfg)
	verifier := core.NewVerifier(tsKey.Address())
	oneTimeTokens := cfg.ReplayedOps
	if cfg.OneTime {
		oneTimeTokens += cfg.Clients * cfg.Ops * depth
	}
	if oneTimeTokens > 0 {
		spread := int(counter.MaxSpread())
		if cfg.Chaos == ChaosJoin || cfg.Chaos == ChaosFrontendCrash {
			// The membership faults widen the live index window: a second
			// frontend's in-flight blocks (join), or the crashed
			// incarnation's burned remainders plus the takeover's fresh
			// leases (frontend-crash).
			spread *= 3
		}
		bits := oneTimeTokens + spread + e2eBitmapSlack
		bm, err := core.NewBitmap(bits, 1<<32)
		if err != nil {
			return E2ERow{}, err
		}
		verifier.WithBitmap(bm)
	}
	owner := seedKey("owner", 0)
	deploy := func(c *evm.Contract) (types.Address, error) {
		addr, _, err := env.chain.Deploy(owner.Address(), c)
		return addr, err
	}
	switch cfg.Workload {
	case WorkloadStorage:
		addr, err := deploy(transform.Enable(contracts.NewSimpleStorage(), verifier))
		if err != nil {
			return E2ERow{}, err
		}
		env.targets = []types.Address{addr}
	case WorkloadSale:
		addr, err := deploy(transform.Enable(contracts.NewTokenSale(100), verifier))
		if err != nil {
			return E2ERow{}, err
		}
		env.targets = []types.Address{addr}
	case WorkloadChain:
		env.targets, err = contracts.BuildChain(deploy, depth, func(c *evm.Contract) *evm.Contract {
			return transform.Enable(c, verifier)
		})
		if err != nil {
			return E2ERow{}, err
		}
	default:
		return E2ERow{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	for _, k := range honest {
		env.chain.Fund(k.Address(), ether(1000))
	}
	for _, k := range []*secp256k1.PrivateKey{tamperKey, replayKey, expireKey} {
		env.chain.Fund(k.Address(), ether(1000))
	}

	// The submitter: drains the op channel into Execute calls of
	// TxBatch transactions, running token-signature prevalidation in the
	// parallel pool outside the chain mutex.
	subDone := env.startSubmitter(tsKey.Address())

	// Membership faults need their action armed before the scheduler
	// starts: the join scenario stands its second frontend up now, the
	// frontend-crash scenario binds the takeover closure.
	switch cfg.Chaos {
	case ChaosJoin:
		cleanupJoin, err := armJoin(group, env, reg, tsKey, ruleSet, cfg, run.FsyncBatch, joinStripe, counter)
		if err != nil {
			return E2ERow{}, err
		}
		defer cleanupJoin()
	case ChaosFrontendCrash:
		armFrontendCrash(group, crashSwitch)
	}

	// The chaos fault scheduler watches the aggregate's progress and
	// fires/heals the fault mid-rush; it stops (healing if necessary)
	// before the group's deferred Close. The explicit call after the
	// producers finish collects whether the fault fired; the deferred
	// one only covers error returns (stop is idempotent).
	var stopFault func() bool
	if cfg.Chaos != "" {
		stopFault = group.scheduleFault(cfg, run.ChaosSeed, env.agg)
		defer stopFault()
	}

	// Producers: honest clients, denied clients, and the attacker wallets
	// all run concurrently against the live HTTP service.
	start := time.Now()
	type producer func() error
	producers := make([]producer, 0, cfg.Clients+cfg.DeniedClients+3)
	for _, k := range honest {
		k := k
		producers = append(producers, func() error { return env.runHonest(k) })
	}
	for _, k := range denied {
		k := k
		producers = append(producers, func() error { return env.runDenied(k) })
	}
	if cfg.TamperedOps > 0 {
		producers = append(producers, func() error { return env.runTampered(tamperKey) })
	}
	if cfg.ReplayedOps > 0 {
		producers = append(producers, func() error { return env.runReplay(replayKey) })
	}
	if cfg.ExpiredOps > 0 {
		producers = append(producers, func() error { return env.runExpired(expireKey) })
	}
	errs := make([]error, len(producers))
	var wg sync.WaitGroup
	for i, p := range producers {
		wg.Add(1)
		go func(i int, p producer) {
			defer wg.Done()
			errs[i] = p()
		}(i, p)
	}
	wg.Wait()
	close(env.sub)
	<-subDone
	elapsed := time.Since(start)
	faultInjected := false
	if stopFault != nil {
		faultInjected = stopFault()
	}
	for _, err := range errs {
		if err != nil {
			return E2ERow{}, err
		}
	}
	if cfg.Chaos != "" {
		if err := group.FireErr(); err != nil {
			return E2ERow{}, fmt.Errorf("chaos %s action: %w", cfg.Chaos, err)
		}
	}

	// Cross-check the server-side stats over the same HTTP interface the
	// clients used.
	for _, cl := range env.allClients() {
		if cl == nil {
			continue
		}
		if err := env.agg.addServerStats(cl); err != nil {
			return E2ERow{}, err
		}
	}
	// One source of truth: the /v1/stats counters (per-frontend atomics)
	// must agree with the registry's aggregated issuance series.
	if err := checkRegistryStats(reg, env.agg); err != nil {
		return E2ERow{}, err
	}

	row := finishRow(cfg, env.agg, elapsed, reg,
		cacheRate(senderH0, senderM0, evm.SenderCacheStats),
		cacheRate(tokenH0, tokenM0, core.TokenSigCacheStats))
	row.ChaosFaultInjected = faultInjected
	return row, nil
}

// checkRegistryStats asserts that the registry-level issuance counters
// (summed over every frontend reporting to reg) match the /v1/stats
// totals the harness collected over HTTP — one pipeline, two views, no
// drift.
func checkRegistryStats(reg *metrics.Registry, agg *e2eAgg) error {
	issued, denied := ts.RegistryStats(reg)
	agg.mu.Lock()
	defer agg.mu.Unlock()
	if int(issued) != agg.counts.TSIssued || int(denied) != agg.counts.TSRejected {
		return fmt.Errorf("registry issuance series (%d issued, %d denied) disagree with /v1/stats (%d, %d)",
			issued, denied, agg.counts.TSIssued, agg.counts.TSRejected)
	}
	return nil
}

// cacheRate computes a process-wide cache's hit fraction over the
// scenario's own traffic, as a delta against the run-start snapshot.
func cacheRate(h0, m0 uint64, stats func() (uint64, uint64)) float64 {
	h1, m1 := stats()
	dh, dm := h1-h0, m1-m0
	if dh+dm == 0 {
		return 0
	}
	return float64(dh) / float64(dh+dm)
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
				Workers:          e.cfg.Workers,
				PrevalidateBatch: hook,
			})
			end := time.Now()
			for i, res := range results {
				e.agg.recordTx(pending[i], res, end)
				if op := pending[i]; op.id != "" {
					e.tracer.Span(op.id, "e2e", op.start, end)
				}
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

// stageSummary extracts a StageLatency from one registry histogram.
func stageSummary(h *metrics.Histogram) StageLatency {
	return StageLatency{
		Count:     h.Count(),
		P50Millis: h.Quantile(0.50) * 1000,
		P95Millis: h.Quantile(0.95) * 1000,
		P99Millis: h.Quantile(0.99) * 1000,
		MaxMillis: h.Max() * 1000,
	}
}

// finishRow folds the aggregate and the scenario registry's latency
// histograms into the result row. Stage entries with zero observations
// are dropped (a scenario without batch traffic has no commit
// stage).
func finishRow(cfg ScenarioConfig, agg *e2eAgg, elapsed time.Duration,
	reg *metrics.Registry, senderHitRate, tokenHitRate float64) E2ERow {
	stages := make(map[string]StageLatency)
	for name, h := range map[string]*metrics.Histogram{
		"e2e":         agg.opLat,
		"issue":       reg.Histogram(ts.MetricIssueSeconds, "", nil),
		"http_tokens": reg.Histogram(tshttp.MetricLatency, "", nil, metrics.L("route", "/v1/tokens")),
		"prevalidate": reg.Histogram(evm.MetricPrevalidateSeconds, "", nil),
		"commit":      reg.Histogram(evm.MetricCommitSeconds, "", nil),
	} {
		if s := stageSummary(h); s.Count > 0 {
			stages[name] = s
		}
	}
	e2e := stages["e2e"]
	counts := agg.counts
	return E2ERow{
		Scenario:           cfg.Name,
		Clients:            cfg.Clients,
		OpsPerClient:       cfg.Ops,
		Seconds:            elapsed.Seconds(),
		TokensPerSec:       float64(counts.TokensIssued) / elapsed.Seconds(),
		TxPerSec:           float64(counts.TxSubmitted) / elapsed.Seconds(),
		P50Millis:          e2e.P50Millis,
		P95Millis:          e2e.P95Millis,
		P99Millis:          e2e.P99Millis,
		Stages:             stages,
		SenderCacheHitRate: senderHitRate,
		TokenCacheHitRate:  tokenHitRate,
		Counts:             counts,
	}
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
		GasPrice: e.gasPrc,
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
		start := time.Now()
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
		tokensEnd := time.Now()
		for j := 0; j < n; j++ {
			entries, err := e.entriesFor(res[j*perOp : (j+1)*perOp])
			if err != nil {
				return err
			}
			if reads[j] {
				_, rec, _ := e.chain.StaticCall(key.Address(), e.targets[0], "get", nil, entries)
				e.agg.recordRead(start, rec != nil && rec.Status)
				continue
			}
			tx, err := e.buildTx(key, nonce, entries)
			if err != nil {
				return err
			}
			nonce++
			id := ""
			if e.tracer != nil {
				// The token round-trip is batched, so each op in the window
				// shares the acquisition span; the submitter closes the
				// trace with the op's own end-to-end span.
				id = fmt.Sprintf("%s/%s#%d", e.cfg.Name, key.Address().Hex()[:10], off+j)
				e.tracer.Span(id, "tokens", start, tokensEnd)
			}
			e.sub <- &e2eOp{class: opWrite, tx: tx, start: start, id: id}
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

// runTampered obtains valid tokens and mutates their expiry before use:
// the signature no longer covers the token bytes, so every transaction
// must be rejected with ErrBadTokenSig.
func (e *e2eEnv) runTampered(key *secp256k1.PrivateKey) error {
	nonce := uint64(0)
	for off := 0; off < e.cfg.TamperedOps; off += e.cfg.TokenBatch {
		n := min(e.cfg.TokenBatch, e.cfg.TamperedOps-off)
		start := time.Now()
		reqs := make([]*core.Request, 0, n)
		for j := 0; j < n; j++ {
			reqs = append(reqs, e.opRequests(key.Address(), false)...)
		}
		res, err := e.fetchTokens(e.client, key, reqs)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("tamper attacker should be whitelisted: %w", r.Err)
			}
			tk := r.Token
			tk.Expire = tk.Expire.Add(time.Hour) // breaks the signature, not the expiry check
			tx, err := e.buildTx(key, nonce, [][]byte{core.EncodeEntry(e.targets[0], tk)})
			if err != nil {
				return err
			}
			nonce++
			e.sub <- &e2eOp{class: opTampered, tx: tx, start: start}
		}
	}
	return nil
}

// runReplay obtains one-time tokens and submits each twice: the first use
// is legitimate, the duplicate must be rejected by the bitmap with
// ErrTokenUsed.
func (e *e2eEnv) runReplay(key *secp256k1.PrivateKey) error {
	nonce := uint64(0)
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
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("replay attacker should be whitelisted: %w", r.Err)
			}
			entries := [][]byte{core.EncodeEntry(e.targets[0], r.Token)}
			for _, class := range []opClass{opReplayFirst, opReplay} {
				tx, err := e.buildTx(key, nonce, entries)
				if err != nil {
					return err
				}
				nonce++
				e.sub <- &e2eOp{class: class, tx: tx, start: start}
			}
		}
	}
	return nil
}

// runExpired obtains already-expired tokens from the negative-lifetime
// frontend; every transaction must be rejected with ErrTokenExpired.
func (e *e2eEnv) runExpired(key *secp256k1.PrivateKey) error {
	nonce := uint64(0)
	for off := 0; off < e.cfg.ExpiredOps; off += e.cfg.TokenBatch {
		n := min(e.cfg.TokenBatch, e.cfg.ExpiredOps-off)
		start := time.Now()
		reqs := make([]*core.Request, 0, n)
		for j := 0; j < n; j++ {
			reqs = append(reqs, e.opRequests(key.Address(), false)...)
		}
		res, err := e.fetchTokens(e.expiredClient, key, reqs)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("expire attacker should be whitelisted: %w", r.Err)
			}
			tx, err := e.buildTx(key, nonce, [][]byte{core.EncodeEntry(e.targets[0], r.Token)})
			if err != nil {
				return err
			}
			nonce++
			e.sub <- &e2eOp{class: opExpired, tx: tx, start: start}
		}
	}
	return nil
}

// Format renders the run as the end-to-end scenario table of
// docs/BENCHMARKS.md plus one correctness-count line per scenario.
func (r *E2EResult) Format() string {
	var b strings.Builder
	scale := "full"
	if r.Config.Smoke {
		scale = "smoke"
	}
	fmt.Fprintf(&b, "End-to-end scenarios (%s scale): real HTTP Token Service → wallet clients → Chain.Execute\n", scale)
	fmt.Fprintf(&b, "  %-12s %8s %6s %9s %10s %10s %9s %9s %9s\n",
		"scenario", "clients", "ops", "seconds", "tokens/s", "tx/s", "p50 ms", "p95 ms", "p99 ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %8d %6d %9.3f %10.1f %10.1f %9.2f %9.2f %9.2f\n",
			row.Scenario, row.Clients, row.OpsPerClient, row.Seconds,
			row.TokensPerSec, row.TxPerSec, row.P50Millis, row.P95Millis, row.P99Millis)
	}
	b.WriteString("Correctness counts (exact; pinned by out/e2e-envelope.json in CI):\n")
	for _, row := range r.Rows {
		c := row.Counts
		fmt.Fprintf(&b, "  %-12s tokens %d/%d issued/denied, tx %d/%d accepted/rejected",
			row.Scenario, c.TokensIssued, c.TokensDenied, c.TxAccepted, c.TxRejected)
		if c.ReadsOK+c.ReadsFailed > 0 {
			fmt.Fprintf(&b, ", reads %d ok", c.ReadsOK)
		}
		if c.RejTampered+c.RejReplayed+c.RejExpired > 0 || c.AdvAccepted > 0 {
			fmt.Fprintf(&b, ", attacks rejected %d tampered / %d replayed / %d expired, %d accepted",
				c.RejTampered, c.RejReplayed, c.RejExpired, c.AdvAccepted)
		}
		if c.DupOneTimeIndexes > 0 {
			fmt.Fprintf(&b, ", %d DUPLICATE one-time indexes", c.DupOneTimeIndexes)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the run as machine-readable rows (one line per scenario).
func (r *E2EResult) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,clients,ops_per_client,seconds,tokens_per_sec,tx_per_sec,p50_ms,p95_ms,p99_ms," +
		"token_requests,tokens_issued,tokens_denied,ts_issued,ts_rejected," +
		"tx_submitted,tx_accepted,tx_rejected,reads_ok,reads_failed," +
		"adversarial_accepted,rejected_tampered,rejected_replayed,rejected_expired,dup_one_time_indexes\n")
	for _, row := range r.Rows {
		c := row.Counts
		fmt.Fprintf(&b, "%s,%d,%d,%.3f,%.1f,%.1f,%.2f,%.2f,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			row.Scenario, row.Clients, row.OpsPerClient, row.Seconds,
			row.TokensPerSec, row.TxPerSec, row.P50Millis, row.P95Millis, row.P99Millis,
			c.TokenRequests, c.TokensIssued, c.TokensDenied, c.TSIssued, c.TSRejected,
			c.TxSubmitted, c.TxAccepted, c.TxRejected, c.ReadsOK, c.ReadsFailed,
			c.AdvAccepted, c.RejTampered, c.RejReplayed, c.RejExpired, c.DupOneTimeIndexes)
	}
	return b.String()
}

// Envelope is the CI regression gate: the exact correctness counts of a
// smoke run, checked into out/e2e-envelope.json. Throughput and latency
// are deliberately excluded — they vary by machine and are advisory-only.
type Envelope struct {
	// Smoke records the scale the envelope was captured at; comparing a
	// run at a different scale is always an error.
	Smoke bool `json:"smoke"`
	// Scenarios maps scenario name to its pinned counts.
	Scenarios map[string]E2ECounts `json:"scenarios"`
}

// Envelope captures the run's counts as an envelope.
func (r *E2EResult) Envelope() *Envelope {
	env := &Envelope{Smoke: r.Config.Smoke, Scenarios: make(map[string]E2ECounts, len(r.Rows))}
	for _, row := range r.Rows {
		env.Scenarios[row.Scenario] = row.Counts
	}
	return env
}

// CheckEnvelope compares the run's correctness counts against a pinned
// envelope and returns a field-level description of every drift. A result
// covering every shipped scenario additionally requires the envelope to
// contain exactly that scenario set.
func (r *E2EResult) CheckEnvelope(env *Envelope) error {
	if env.Smoke != r.Config.Smoke {
		return fmt.Errorf("envelope scale mismatch: envelope smoke=%t, run smoke=%t", env.Smoke, r.Config.Smoke)
	}
	var diffs []string
	ran := make(map[string]bool, len(r.Rows))
	for _, row := range r.Rows {
		ran[row.Scenario] = true
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
