package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/nettest"
	"repro/internal/store"
	replicanet "repro/internal/ts/replica/net"
	"repro/internal/ts/stack"
)

// Chaos fault names a ScenarioConfig.Chaos can select. Each scenario
// backs its one-time counter with a networked 3-replica quorum group
// (internal/ts/replica/net), every replica behind its own
// fault-injecting TCP proxy (internal/nettest); the fault hits one
// replica mid-run and heals before the run ends. A 3-replica quorum
// tolerates one faulted replica, so the correctness counts must be
// identical to a fault-free run — that availability contract is exactly
// what the envelope pins.
const (
	// ChaosKill crashes the victim mid-rush: new connections refused,
	// established ones hard-reset — a kill -9 as the network sees it.
	// Healing models the replica process rejoining at the same address.
	ChaosKill = "kill"
	// ChaosPartition blackholes the victim: nothing is closed, every
	// byte in either direction is silently withheld until the heal.
	ChaosPartition = "partition"
	// ChaosSlow degrades the victim: every forwarded chunk is delayed,
	// modeling an overloaded or badly-routed replica.
	ChaosSlow = "slow"
	// ChaosJoin is a membership fault rather than a network one: a second
	// replica group joins mid-rush through the live join protocol
	// (internal/ts/membership), and post-join token traffic round-robins
	// across both frontends. Issuance must continue through the view
	// change with exactly the fault-free counts and zero duplicate
	// one-time indexes.
	ChaosJoin = "join"
	// ChaosFrontendCrash abandons the frontend's coordinator and sharded
	// counter mid-rush (the crash) and performs an epoch-fenced takeover:
	// a fresh coordinator fences a higher epoch over the same replicas
	// and a fresh sharded counter resumes issuance above the majority
	// frontier. The crashed incarnation's unexhausted remainders are
	// burned — bounded by one frontend's max spread — and never reissued.
	ChaosFrontendCrash = "frontend-crash"
)

// chaosReplicas is the replica-group size of every quorum-backed
// scenario: the smallest quorum that tolerates one fault.
const chaosReplicas = 3

// quorumGroup is a scenario's replicated one-time counter backend:
// WAL-backed replica nodes on loopback, each behind its own nettest
// proxy (pass-through until a chaos fault is injected). Frontends only
// ever dial the proxies. The tokensale scenario, every chaos scenario
// and chaos-join's joining group all run on one.
type quorumGroup struct {
	dir      string
	servers  []*replicanet.Server
	backends []*store.File
	proxies  []*nettest.Proxy
	urls     []string

	// fire, when set, is the membership action (group join or epoch-fenced
	// takeover) the fault scheduler runs at the inject threshold instead
	// of a proxy fault; fireErr records its failure for the post-run
	// check — the scheduler goroutine has nowhere else to report it.
	fireMu  sync.Mutex
	fire    func() error
	fireErr error
}

// checkChaos rejects an unknown ScenarioConfig.Chaos fault name.
func checkChaos(fault string) error {
	switch fault {
	case ChaosKill, ChaosPartition, ChaosSlow, ChaosJoin, ChaosFrontendCrash:
		return nil
	}
	return fmt.Errorf("unknown chaos fault %q (supported: %s, %s, %s, %s, %s)",
		fault, ChaosKill, ChaosPartition, ChaosSlow, ChaosJoin, ChaosFrontendCrash)
}

// startQuorumGroup stands a replica group up. Replica WALs live under
// dir/replica<i>, and Close leaves them there for inspection.
func startQuorumGroup(dir string) (*quorumGroup, error) {
	g := &quorumGroup{dir: dir}
	for i := 0; i < chaosReplicas; i++ {
		backend, err := store.OpenFile(filepath.Join(g.dir, fmt.Sprintf("replica%d", i)), store.FileOptions{})
		if err != nil {
			g.Close()
			return nil, err
		}
		g.backends = append(g.backends, backend)
		node, err := replicanet.OpenNode(backend)
		if err != nil {
			g.Close()
			return nil, err
		}
		srv, err := replicanet.Serve(node, "127.0.0.1:0")
		if err != nil {
			g.Close()
			return nil, err
		}
		g.servers = append(g.servers, srv)
		proxy, err := nettest.NewProxy(srv.Addr())
		if err != nil {
			g.Close()
			return nil, err
		}
		g.proxies = append(g.proxies, proxy)
		g.urls = append(g.urls, proxy.URL())
	}
	return g, nil
}

// counterConfig is the counter stack of a frontend over g: its sharded
// counter allocates blocks through a coordinator dialing g's proxies,
// with a replica RPC timeout well inside a scenario's run.
func (g *quorumGroup) counterConfig(reg *metrics.Registry) stack.Config {
	return stack.Config{Peers: g.urls, Timeout: time.Second, Shards: shardedCounterShards, Block: shardedCounterBlock, Registry: reg}
}

func (g *quorumGroup) Close() {
	for _, p := range g.proxies {
		_ = p.Close()
	}
	for _, s := range g.servers {
		_ = s.Close()
	}
	for _, b := range g.backends {
		_ = b.Close()
	}
}

// inject applies the scenario's fault: a proxy fault on the victim for
// the network faults, or the armed membership action (join/takeover)
// for the membership faults — those have no victim and nothing to heal.
func (g *quorumGroup) inject(fault string, victim int) {
	p := g.proxies[victim]
	switch fault {
	case ChaosKill:
		p.SetDrop(true)
		p.ResetAll()
	case ChaosPartition:
		p.SetPartition(true)
	case ChaosSlow:
		p.SetDelay(25 * time.Millisecond)
	case ChaosJoin, ChaosFrontendCrash:
		g.fireMu.Lock()
		if g.fire != nil {
			g.fireErr = g.fire()
			g.fire = nil
		}
		g.fireMu.Unlock()
	}
}

// FireErr reports whether the armed membership action failed when it
// fired; the scenario's phase fails the row on it once its producers
// finish and the submitter drains.
func (g *quorumGroup) FireErr() error {
	g.fireMu.Lock()
	defer g.fireMu.Unlock()
	return g.fireErr
}

func (g *quorumGroup) heal(victim int) { g.proxies[victim].Heal() }

// scheduleFault watches the scenario's progress and fires the fault
// once roughly half the token traffic has happened ("mid-rush"), then
// heals it around the three-quarter mark so the victim's rejoin and
// catch-up also run under live traffic.
// The exact thresholds and the victim are derived from the chaos seed,
// so CI can sweep timings without losing reproducibility. The returned
// stop function ends the watcher (healing, if the run finished
// mid-fault), is idempotent, and reports whether the fault ever fired.
func (g *quorumGroup) scheduleFault(cfg ScenarioConfig, seed int64, agg *e2eAgg) func() bool {
	rng := rand.New(rand.NewSource(seed))
	victim := rng.Intn(chaosReplicas)
	expected := cfg.ExpectedCounts().TokenRequests
	injectAt := int(float64(expected) * (0.35 + 0.3*rng.Float64()))
	healAt := injectAt + (expected-injectAt)/2
	stop := make(chan struct{})
	done := make(chan struct{})
	var injected atomic.Bool
	go func() {
		defer close(done)
		phase := 0 // 0 = armed, 1 = injected, 2 = healed
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for phase < 2 {
			var n int
			select {
			case <-stop:
				// Last look before giving up, so a rush that outran the
				// ticker still gets its (late) fault rather than none.
				n = agg.tokenRequests()
			case <-tick.C:
				n = agg.tokenRequests()
			}
			if phase == 0 && n >= injectAt {
				g.inject(cfg.Chaos, victim)
				injected.Store(true)
				phase = 1
			}
			if phase == 1 && n >= healAt {
				g.heal(victim)
				phase = 2
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var once sync.Once
	return func() bool {
		once.Do(func() {
			close(stop)
			<-done
			g.heal(victim) // idempotent; covers runs that ended mid-fault
		})
		return injected.Load()
	}
}
