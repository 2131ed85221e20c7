package bench

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
	"repro/internal/ts"
	"repro/internal/ts/membership"
	"repro/internal/ts/ring"
	"repro/internal/ts/stack"
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

// MaxSpread reports one incarnation's spread, for the Token Service's
// lease-spread gauge. The bitmap budget (runScenario's open) triples the
// sharded counter's to cover the crashed incarnation's burned remainders
// plus the takeover's fresh leases.
func (s *switchCounter) MaxSpread() int64 { return s.spread }

// memberConfig is the counter stack of a chaos-join frontend of group
// over g: striped under the boot view, whose one group, alpha, serves
// its member endpoints on lnA. The joiner boots with that view too — not
// containing itself — and issues only after the join's advance admits
// it.
func (g *quorumGroup) memberConfig(reg *metrics.Registry, group string, lnA net.Listener) stack.Config {
	c := g.counterConfig(reg)
	c.Member, c.View = group, ring.View{Epoch: 1, Groups: []string{chaosGroupA}}
	c.URLs = map[string]string{chaosGroupA: "http://" + lnA.Addr().String()}
	return c
}

// armJoin stands the joining frontend up (its own quorum group, counter
// stack with membership manager, member endpoints, and a full Token
// Service listener configured like the main frontend's svcCfg apart from
// its counter), serves the main frontend's manager mgrA on lnA, and arms
// the chaos group's fire hook: at the inject threshold mgrA admits the
// joiner through the live join protocol, and honest token traffic starts
// round-robining across both frontends. Everything the joiner opens
// joins env's closers, so env's shutdown closes it, even when arming
// fails half-way.
func armJoin(g *quorumGroup, env *e2eEnv, svcCfg ts.Config, lnA net.Listener, mgrA *membership.Manager) error {
	lnB, err := env.listen()
	if err != nil {
		return err
	}
	urlB := "http://" + lnB.Addr().String()

	// The joiner's replica WALs sit beside group A's, so the artifacts
	// keep both.
	groupB, err := startQuorumGroup(filepath.Join(g.dir, chaosGroupJoiner))
	if err != nil {
		return err
	}
	env.closers = append(env.closers, groupB.Close)
	counterB, err := stack.Open(groupB.memberConfig(svcCfg.Metrics, chaosGroupJoiner, lnA))
	if err != nil {
		return err
	}
	mgrB := counterB.Manager

	srvA := &http.Server{Handler: mgrA.Handler()}
	go func() { _ = srvA.Serve(lnA) }()
	env.closers = append(env.closers, func() { _ = srvA.Close() })
	srvB := &http.Server{Handler: mgrB.Handler()}
	go func() { _ = srvB.Serve(lnB) }()
	env.closers = append(env.closers, func() { _ = srvB.Close() })

	svcCfg.Counter = counterB
	clientB, err := env.serve(svcCfg)
	if err != nil {
		return err
	}

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
	return nil
}

// armFrontendCrash arms the epoch-fenced takeover: at the inject
// threshold the live sharded counter (and the coordinator under it) is
// abandoned mid-traffic, a fresh coordinator fences a strictly higher
// epoch over the same replicas, and a fresh sharded counter resumes
// issuance above the majority frontier the fence read. The crashed
// incarnation's unexhausted remainders burn — at most one max spread —
// and can never be reissued, because every replica only grants strictly
// increasing blocks.
func armFrontendCrash(g *quorumGroup, sw *switchCounter, reg *metrics.Registry) {
	g.fire = func() error {
		c, err := stack.Open(g.counterConfig(reg))
		if err != nil {
			return err
		}
		epoch, err := c.Coordinator.Fence()
		if err != nil {
			return fmt.Errorf("takeover fence: %w", err)
		}
		if epoch < 2 {
			return fmt.Errorf("takeover fenced epoch %d, want ≥ 2", epoch)
		}
		sw.swap(c.ShardedCounter)
		return nil
	}
}
