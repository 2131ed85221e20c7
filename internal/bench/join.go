package bench

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/ts/membership"
	replicanet "repro/internal/ts/replica/net"
	"repro/internal/ts/ring"
	"repro/internal/tshttp"
)

// The chaos-join scenario's replica-group names: the main frontend runs
// chaosGroupA over the scenario's quorum group; chaosGroupJoiner is the
// group that joins mid-rush, backed by a second quorum group of its own.
const (
	chaosGroupA      = "alpha"
	chaosGroupJoiner = "beta"
)

// switchCounter is a ts.Counter whose inner counter can be swapped at
// runtime — the harness's stand-in for a frontend crash: the old
// sharded counter (and the coordinator under it) is abandoned with its
// unexhausted remainders, and the takeover's fresh counter takes over
// mid-traffic.
type switchCounter struct {
	mu     sync.RWMutex
	inner  *ts.ShardedCounter
	spread int64
}

func newSwitchCounter(inner *ts.ShardedCounter) *switchCounter {
	return &switchCounter{inner: inner, spread: inner.MaxSpread()}
}

func (s *switchCounter) Next() (int64, error) {
	s.mu.RLock()
	c := s.inner
	s.mu.RUnlock()
	return c.Next()
}

func (s *switchCounter) swap(c *ts.ShardedCounter) {
	s.mu.Lock()
	s.inner = c
	s.mu.Unlock()
}

// MaxSpread reports one incarnation's spread; the bitmap budget in
// runScenario multiplies it to cover the crashed incarnation's burned
// remainders plus the takeover's fresh leases.
func (s *switchCounter) MaxSpread() int64 { return s.spread }

// armJoin stands the joining frontend up (its own quorum group,
// stripe, sharded counter, membership manager, member endpoints, and a
// full Token Service listener sharing skTS and the rules) and arms the
// chaos group's fire hook: at the inject threshold the main frontend's
// manager admits the joiner through the live join protocol, and honest
// token traffic starts round-robining across both frontends. The
// returned cleanup closes everything the joiner opened.
func armJoin(g *quorumGroup, env *e2eEnv, reg *metrics.Registry, tsKey *secp256k1.PrivateKey,
	ruleSet *rules.RuleSet, cfg ScenarioConfig, fsyncBatch int, stripeA *ring.DynamicStripe, counterA *ts.ShardedCounter) (func(), error) {
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	fail := func(err error) (func(), error) {
		cleanup()
		return nil, err
	}

	bootView := ring.View{Epoch: 1, Groups: []string{chaosGroupA}}

	// Pre-bind both member listeners so the managers can be built with
	// real URLs (the advance request propagates the full map).
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	cleanups = append(cleanups, func() { _ = lnA.Close() })
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	cleanups = append(cleanups, func() { _ = lnB.Close() })
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()

	mgrA, err := membership.NewManager(membership.Config{
		Group:    chaosGroupA,
		Stripe:   stripeA,
		Counter:  counterA,
		Registry: reg,
	}, bootView, map[string]string{chaosGroupA: urlA}, 0)
	if err != nil {
		return fail(err)
	}

	// The joiner boots with the cluster's current view — not containing
	// itself — and issues only after the join's advance admits it. Its
	// replica WALs sit beside group A's, so the artifacts keep both.
	groupB, err := startQuorumGroup(filepath.Join(g.dir, chaosGroupJoiner), fsyncBatch)
	if err != nil {
		return fail(err)
	}
	cleanups = append(cleanups, groupB.Close)
	stripeB, err := ring.NewDynamicStripe(groupB.coord, chaosGroupJoiner, bootView, 0)
	if err != nil {
		return fail(err)
	}
	counterB, err := ts.NewShardedCounter(stripeB, shardedCounterShards, shardedCounterBlock)
	if err != nil {
		return fail(err)
	}
	mgrB, err := membership.NewManager(membership.Config{
		Group:    chaosGroupJoiner,
		Stripe:   stripeB,
		Counter:  counterB,
		Registry: reg,
	}, bootView, map[string]string{chaosGroupA: urlA}, 0)
	if err != nil {
		return fail(err)
	}

	srvA := &http.Server{Handler: mgrA.Handler()}
	go func() { _ = srvA.Serve(lnA) }()
	cleanups = append(cleanups, func() { _ = srvA.Close() })
	srvB := &http.Server{Handler: mgrB.Handler()}
	go func() { _ = srvB.Serve(lnB) }()
	cleanups = append(cleanups, func() { _ = srvB.Close() })

	svcB, err := ts.New(ts.Config{
		Key:          tsKey,
		Rules:        ruleSet,
		Counter:      counterB,
		RequireProof: cfg.RequireProof,
		Metrics:      reg,
	})
	if err != nil {
		return fail(err)
	}
	baseB, stopB, err := startServer(svcB, reg)
	if err != nil {
		return fail(err)
	}
	cleanups = append(cleanups, stopB)
	clientB := tshttp.NewClient(baseB, "")

	g.fire = func() error {
		res, err := mgrA.Join(chaosGroupJoiner, urlB)
		if err != nil {
			return fmt.Errorf("join %s: %w", chaosGroupJoiner, err)
		}
		if res.View.Epoch != 2 || res.View.Slot(chaosGroupJoiner) < 0 {
			return fmt.Errorf("post-join view = %+v, want epoch 2 containing %s", res.View, chaosGroupJoiner)
		}
		if v := mgrB.View(); v.Epoch != 2 {
			return fmt.Errorf("joiner advanced to epoch %d, want 2", v.Epoch)
		}
		env.addClient(clientB)
		return nil
	}
	return cleanup, nil
}

// armFrontendCrash arms the epoch-fenced takeover: at the inject
// threshold the live sharded counter (and the coordinator under it) is
// abandoned mid-traffic, a fresh coordinator fences a strictly higher
// epoch over the same replicas, and a fresh sharded counter resumes
// issuance above the majority frontier the fence read. The crashed
// incarnation's unexhausted remainders burn — at most one max spread —
// and can never be reissued, because every replica only grants strictly
// increasing blocks.
func armFrontendCrash(g *quorumGroup, sw *switchCounter) {
	g.fire = func() error {
		coord, err := replicanet.NewCoordinator(g.urls, replicanet.Options{Timeout: time.Second})
		if err != nil {
			return err
		}
		epoch, err := coord.Fence()
		if err != nil {
			return fmt.Errorf("takeover fence: %w", err)
		}
		if epoch < 2 {
			return fmt.Errorf("takeover fenced epoch %d, want ≥ 2", epoch)
		}
		sc, err := ts.NewShardedCounter(coord, shardedCounterShards, shardedCounterBlock)
		if err != nil {
			return err
		}
		sw.swap(sc)
		return nil
	}
}
