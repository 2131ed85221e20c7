// Package ts implements the SMACS Token Service: the off-chain
// infrastructure that verifies token requests against the owner's Access
// Control Rules, runs the plugged-in runtime-verification tools, and issues
// signed tokens (§ III/IV). A Service corresponds to one SMACS-enabled
// contract and holds the signing key skTS whose address the contract's
// verifier trusts.
package ts

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// DefaultTokenLifetime is used when the owner does not configure one. The
// paper's Table IV analysis assumes a one-hour lifetime.
const DefaultTokenLifetime = time.Hour

// Validator is a pluggable validation-module tool (Fig. 1's "Verification
// Tools" box): given a compliant token request, it may veto issuance, e.g.
// by simulating the requested call with Hydra or an ECF checker (§ V).
type Validator interface {
	// Name identifies the tool in errors and logs.
	Name() string
	// Validate returns nil to approve the request.
	Validate(req *core.Request) error
}

// Counter allocates one-time-token indexes. The paper requires replicated
// TSes to coordinate on it (§ VII-B); see the replica/net subpackage.
type Counter interface {
	// Next returns a never-before-issued index ≥ 1. LocalCounter and
	// the replica/net Coordinator are strictly increasing; ShardedCounter is
	// increasing only within a shard, with a bounded spread that the
	// one-time bitmap sizing must budget for (see
	// ShardedCounter.MaxSpread).
	Next() (int64, error)
}

// LocalCounter is the single-instance counter of § IV-C: initialized to 0
// and incremented before use, so the first issued index is 1.
type LocalCounter struct {
	mu sync.Mutex
	n  int64
}

// Next implements Counter.
func (c *LocalCounter) Next() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n, nil
}

// Service errors.
var (
	// ErrValidatorRejected wraps a runtime-verification veto.
	ErrValidatorRejected = errors.New("ts: validator rejected the request")
	// ErrWrongContract is returned when a request targets a contract this
	// service does not serve.
	ErrWrongContract = errors.New("ts: request targets a different contract")
	// ErrCounterUnavailable wraps a one-time index allocation failure
	// (e.g. a quorum that cannot form, or a WAL append error).
	ErrCounterUnavailable = errors.New("ts: one-time index allocation failed")
)

// Config parameterizes a Token Service.
type Config struct {
	// Key is skTS. Required.
	Key *secp256k1.PrivateKey
	// Contract restricts the service to one contract address (zero =
	// serve any cAddr, useful for tests).
	Contract types.Address
	// Rules is the initial ACR set; nil means allow-all.
	Rules *rules.RuleSet
	// Lifetime is the token validity window (0 = DefaultTokenLifetime).
	// A negative lifetime is allowed and issues already-expired tokens:
	// adversarial harnesses (bench's e2e "adversarial" scenario) run such
	// a frontend alongside the real one to prove expired tokens are
	// rejected on-chain no matter how they were obtained.
	Lifetime time.Duration
	// Counter allocates one-time indexes (nil = a fresh LocalCounter).
	Counter Counter
	// Now injects a clock (nil = time.Now).
	Now func() time.Time
	// RequireProof demands a proof of possession on every request (the
	// client's signature over core.Request.ProofDigest), so third parties
	// cannot request tokens in another sender's name.
	RequireProof bool
	// Metrics selects the registry the service's instrumentation series
	// (ts_tokens_issued_total, ts_issue_seconds, …) are registered in
	// (nil = a private registry nothing scrapes). Services sharing a
	// registry aggregate into the same series; per-instance totals
	// remain available via Stats.
	Metrics *metrics.Registry
}

// Service issues SMACS tokens. The issuance hot path is lock-free: rules
// and validators are swapped through atomic pointers and the stats are
// atomic counters, so concurrent Issue calls never serialize on a service
// mutex (one-time index allocation contends only inside the configured
// Counter — see ShardedCounter).
type Service struct {
	key          *secp256k1.PrivateKey
	contract     types.Address
	lifetime     time.Duration
	counter      Counter
	now          func() time.Time
	requireProof bool

	rules      atomic.Pointer[rules.RuleSet]
	validators atomic.Pointer[[]Validator]
	writerMu   sync.Mutex // serializes AddValidator copy-on-write appends

	// issued/rejected are this instance's counts (the GET /v1/stats
	// view); metrics carries the registry-level series, which aggregate
	// across every Service sharing the registry.
	issued   atomic.Uint64
	rejected atomic.Uint64
	metrics  *serviceMetrics
}

// New creates a Token Service from cfg.
func New(cfg Config) (*Service, error) {
	if cfg.Key == nil {
		return nil, errors.New("ts: signing key is required")
	}
	s := &Service{
		key:          cfg.Key,
		contract:     cfg.Contract,
		lifetime:     cfg.Lifetime,
		counter:      cfg.Counter,
		now:          cfg.Now,
		requireProof: cfg.RequireProof,
	}
	rs := cfg.Rules
	if rs == nil {
		rs = rules.NewRuleSet()
	}
	s.rules.Store(rs)
	s.validators.Store(new([]Validator))
	if s.lifetime == 0 {
		s.lifetime = DefaultTokenLifetime
	}
	if s.counter == nil {
		s.counter = &LocalCounter{}
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.metrics = newServiceMetrics(metrics.Or(cfg.Metrics))
	if sp, ok := s.counter.(interface{ MaxSpread() int64 }); ok {
		s.metrics.leaseSpread.Set(sp.MaxSpread())
	}
	return s, nil
}

// Address returns the service's token-signing address — the value the
// SMACS-enabled contract's verifier is preloaded with.
func (s *Service) Address() types.Address { return s.key.Address() }

// Rules returns the live rule set; it is internally synchronized, so the
// owner can update it while the service runs.
func (s *Service) Rules() *rules.RuleSet { return s.rules.Load() }

// ReplaceRules atomically swaps in a new rule set.
func (s *Service) ReplaceRules(rs *rules.RuleSet) {
	if rs == nil {
		rs = rules.NewRuleSet()
	}
	s.rules.Store(rs)
}

// AddValidator plugs a runtime-verification tool into the validation
// module. Validators run (in registration order) for every compliant
// argument-token request. The validator list is copy-on-write, so
// registration never blocks in-flight issuance.
func (s *Service) AddValidator(v Validator) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	old := *s.validators.Load()
	next := make([]Validator, len(old)+1)
	copy(next, old)
	next[len(old)] = v
	s.validators.Store(&next)
}

// Lifetime returns the configured token lifetime.
func (s *Service) Lifetime() time.Duration { return s.lifetime }

// Stats reports how many requests were issued and rejected. Each counter
// is monotonic, but the pair is read without a lock, so under concurrent
// issuance the two values may be offset by in-flight requests — treat
// sums and ratios across them as approximate.
func (s *Service) Stats() (issued, rejected uint64) {
	return s.issued.Load(), s.rejected.Load()
}

// Issue validates a token request and, if it complies with the ACRs and
// every validator approves, returns a freshly signed token (§ IV-B a).
// Issue is safe for concurrent use and does not serialize on the service.
func (s *Service) Issue(req *core.Request) (core.Token, error) {
	return s.issueTimed(req, false)
}

// issueTimed wraps issue with the latency and outcome accounting shared
// by the single and batch entry points. proofChecked reports that the
// caller already verified the request's proof of possession (and it
// passed), so issue can skip the duplicate ecrecover.
func (s *Service) issueTimed(req *core.Request, proofChecked bool) (core.Token, error) {
	start := time.Now()
	tk, err := s.issue(req, proofChecked)
	s.metrics.issueSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		s.rejected.Add(1)
		s.metrics.denied[denyReason(err)].Inc()
	} else {
		s.issued.Add(1)
		s.metrics.issued.Inc()
	}
	return tk, err
}

// Result pairs one issuance outcome of a batch: exactly one of Token and
// Err is meaningful.
type Result struct {
	Token core.Token
	Err   error
}

// maxBatchConcurrency bounds the goroutines one IssueBatch call spawns:
// enough to overlap validator and counter waits, small enough that
// concurrent batches do not multiply into scheduler thrash.
const maxBatchConcurrency = 32

// IssueBatch issues tokens for all requests concurrently (bounded by
// maxBatchConcurrency) and returns one Result per request, in order. A
// rejected request does not fail the batch; its slot carries the error.
// This is the amortized path behind tshttp's POST /v1/tokens endpoint.
func (s *Service) IssueBatch(reqs []*core.Request) []Result {
	s.metrics.batchSize.Observe(float64(len(reqs)))
	results := make([]Result, len(reqs))

	// Pre-verify all proofs of possession in one amortized batch
	// recovery. Requests whose proof fails here are not short-circuited:
	// issue re-derives the identical per-item error on its ordinary path,
	// so accounting and error shapes stay single-sourced. Only successes
	// skip the duplicate ecrecover.
	var proofErrs []error
	if s.requireProof {
		proofErrs = core.VerifyProofBatch(reqs)
	}

	sem := make(chan struct{}, maxBatchConcurrency)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, req *core.Request) {
			defer wg.Done()
			defer func() { <-sem }()
			proofChecked := proofErrs != nil && proofErrs[i] == nil
			results[i].Token, results[i].Err = s.issueTimed(req, proofChecked)
		}(i, req)
	}
	wg.Wait()
	return results
}

func (s *Service) issue(req *core.Request, proofChecked bool) (core.Token, error) {
	if err := req.Validate(); err != nil {
		return core.Token{}, err
	}
	if !s.contract.IsZero() && req.Contract != s.contract {
		return core.Token{}, fmt.Errorf("%w: %s", ErrWrongContract, req.Contract)
	}
	if s.requireProof && !proofChecked {
		if err := req.VerifyProof(); err != nil {
			return core.Token{}, err
		}
	}

	ruleSet := s.rules.Load()
	validators := *s.validators.Load()

	if err := ruleSet.Check(req); err != nil {
		return core.Token{}, err
	}
	if req.Type == core.ArgumentType {
		for _, v := range validators {
			if err := v.Validate(req); err != nil {
				return core.Token{}, fmt.Errorf("%w: %s: %v", ErrValidatorRejected, v.Name(), err)
			}
		}
	}

	index := core.NotOneTime
	if req.OneTime {
		n, err := s.counter.Next()
		if err != nil {
			return core.Token{}, fmt.Errorf("%w: %v", ErrCounterUnavailable, err)
		}
		index = n
	}
	binding, err := req.Binding()
	if err != nil {
		return core.Token{}, err
	}
	expire := s.now().Add(s.lifetime)
	return core.SignToken(s.key, req.Type, expire, index, binding)
}
