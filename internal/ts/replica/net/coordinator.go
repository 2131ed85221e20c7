package net

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc"
)

// ErrNoQuorum is returned when fewer than a majority of replicas respond.
var ErrNoQuorum = errors.New("replica: quorum unavailable")

const (
	// DefaultTimeout bounds each replica RPC. A partitioned (blackholed)
	// replica costs at most this long, and deciding each round at the
	// first majority means it costs nothing unless the live replicas
	// split their votes or the round is a coordinator's first fence.
	DefaultTimeout = 2 * time.Second
	// maxProposeRounds bounds grant retries under contention.
	maxProposeRounds = 64
	// maxFenceRounds bounds epoch escalation against dueling
	// coordinators. It matches maxProposeRounds: several coordinators
	// refencing concurrently (e.g. a cold fleet start, or the race
	// detector slowing every round) can legitimately collide for
	// dozens of rounds before the jittered backoff desynchronizes them.
	maxFenceRounds = 64
	// DefaultBackoffCap bounds one contention-backoff sleep. The cap is
	// what makes chaos timing analyzable: a worst-case grant needs at
	// most maxProposeRounds sleeps, so the total stall a duel can add is
	// maxProposeRounds × DefaultBackoffCap, independent of how unlucky
	// the jitter rolls are.
	DefaultBackoffCap = 32 * time.Millisecond
)

// MetricGrantRetries counts grant rounds that had to be retried (lease
// race lost or fenced off by a newer coordinator) across every
// coordinator sharing a registry.
const MetricGrantRetries = "coordinator_grant_retries_total"

// Options tune a Coordinator.
type Options struct {
	// Timeout bounds each replica RPC (0 = DefaultTimeout).
	Timeout time.Duration
	// Client overrides the HTTP client (nil = a pooled default from
	// rpc.NewHTTPClient).
	Client *http.Client
	// Metrics receives coordinator counters (nil = a private registry
	// nothing scrapes).
	Metrics *metrics.Registry
}

// Coordinator is the client side of the protocol: it implements
// ts.Counter by fencing an epoch and then committing leases with
// majority acks. It is safe for concurrent use (allocations from one
// coordinator are serialized; run several coordinators for parallelism —
// indexes stay unique across all of them). The group tolerates
// ⌊(N−1)/2⌋ unreachable replicas.
type Coordinator struct {
	// peers holds one client per replica, sharing one connection pool.
	peers []rpc.Client

	mu     sync.Mutex
	epoch  int64
	fenced bool
	// known is the highest accepted lease any fence or grant reply has
	// shown: once fenced, the next free slot is known+1 without a read.
	known int64
	// caughtUp is set by the first successful fence, which waits for
	// every replica instead of the first majority: a predecessor that
	// lost its quorum mid-grant can leave a lease on a minority, and a
	// new coordinator starts above it rather than commit it.
	caughtUp bool
	// contention grows on every preemption and resets on a committed
	// lease; it drives the exponential backoff that desynchronizes
	// dueling coordinators.
	contention int
	// rng drives backoff jitter; per-coordinator and mu-guarded, seeded
	// at random so dueling coordinators draw different delays.
	rng *rand.Rand

	grantRetries *metrics.Counter
}

// NewCoordinator builds a coordinator over the replica base URLs
// (e.g. "http://127.0.0.1:7101"). The peer set is fixed for the
// coordinator's lifetime; len(peers) should be odd so majorities are
// unambiguous.
func NewCoordinator(peers []string, opts Options) (*Coordinator, error) {
	if len(peers) < 1 || len(peers)%2 == 0 {
		return nil, fmt.Errorf("replica/net: peer count must be odd and positive, got %d", len(peers))
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Client == nil {
		opts.Client = rpc.NewHTTPClient()
	}
	clients := make([]rpc.Client, len(peers))
	for i, url := range peers {
		clients[i] = rpc.Client{Base: url, HTTP: opts.Client, Timeout: opts.Timeout}
	}
	return &Coordinator{
		peers: clients,
		rng:   rand.New(rand.NewSource(rand.Int63())),
		grantRetries: metrics.Or(opts.Metrics).Counter(MetricGrantRetries,
			"Coordinator grant rounds retried after a lost lease race or epoch preemption."),
	}, nil
}

// Epoch returns the currently established epoch (0 before the first
// successful fence).
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

func (c *Coordinator) majority() int { return len(c.peers)/2 + 1 }

// Next implements ts.Counter: fence if needed, then commit known+1
// with majority acks — one majority round per lease while the epoch
// holds, with no state read (a stable leader already knows the next
// free slot). A grant that loses a lease race learns the frontier from
// its nacks and retries above it; one that lost its epoch refences
// first, and the fence replies carry the frontier. Returns ErrNoQuorum
// while a majority of replicas is unreachable.
func (c *Coordinator) Next() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for round := 0; round < maxProposeRounds; round++ {
		if !c.fenced {
			if err := c.fenceLocked(); err != nil {
				return 0, err
			}
		}
		candidate := c.known + 1
		acks, replies, maxPromised := c.round(PathGrant, wireGrantRequest{Epoch: c.epoch, Lease: candidate}, false)
		if acks >= c.majority() {
			c.contention = 0
			return candidate, nil
		}
		if replies < c.majority() {
			return 0, ErrNoQuorum
		}
		c.grantRetries.Inc()
		if maxPromised > c.epoch {
			// Fenced off by a newer coordinator: re-establish an epoch
			// above the one that preempted us before retrying. Back off
			// with jitter first — two coordinators refencing in lockstep
			// would preempt each other forever (dueling proposers).
			c.epoch = maxPromised
			c.fenced = false
			c.backoffLocked()
		}
		// Otherwise we lost a lease race under a valid epoch; the
		// replies raised known to the winner's lease, so retry above it.
	}
	return 0, fmt.Errorf("replica/net: no progress after %d rounds", maxProposeRounds)
}

// Fence establishes a fresh epoch immediately, even if one is already
// held, and returns it. It is the takeover primitive: a successor
// frontend fences over a crashed (or merely suspected-dead) predecessor,
// after which every replica majority rejects the predecessor's grants —
// its leased blocks stop growing within one lease round-trip instead of
// lingering until someone happens to allocate. Safe to call on a live
// group; the displaced coordinator refences on its next allocation.
func (c *Coordinator) Fence() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fenced = false
	if err := c.fenceLocked(); err != nil {
		return 0, err
	}
	return c.epoch, nil
}

// fenceLocked establishes an epoch: propose epoch+1 to everyone and
// escalate past any higher promise a nack reveals. Requires c.mu.
func (c *Coordinator) fenceLocked() error {
	for round := 0; round < maxFenceRounds; round++ {
		candidate := c.epoch + 1
		acks, replies, maxPromised := c.round(PathFence, wireFenceRequest{Epoch: candidate}, !c.caughtUp)
		if acks >= c.majority() {
			c.epoch = candidate
			c.fenced = true
			c.caughtUp = true
			return nil
		}
		if replies < c.majority() {
			return ErrNoQuorum
		}
		if maxPromised > c.epoch {
			c.epoch = maxPromised
		} else {
			c.epoch = candidate
		}
		c.backoffLocked()
	}
	return fmt.Errorf("replica/net: could not establish an epoch after %d rounds", maxFenceRounds)
}

// backoffLocked sleeps a jittered duration that grows exponentially
// with the coordinator's recent preemption count, hard-capped at
// DefaultBackoffCap, so coordinators that keep preempting each other
// desynchronize instead of livelocking — the standard answer to Paxos's
// dueling proposers. Requires c.mu (the sleep intentionally holds the
// allocation lock: letting another local allocation barge in would just
// duel again).
func (c *Coordinator) backoffLocked() {
	if c.contention < 16 {
		c.contention++
	}
	time.Sleep(backoffDelay(c.contention, c.rng, DefaultBackoffCap))
}

// backoffDelay computes one jittered backoff: uniform in
// [min(1ms, cap), min(2^contention ms, cap)]. Pure so the bound is
// testable with a seeded source — no jitter roll may exceed cap, even a
// sub-millisecond one, which in turn bounds the worst-case stall of a
// full grant duel (maxProposeRounds × cap) below any chaos-scenario
// deadline.
func backoffDelay(contention int, rng *rand.Rand, cap time.Duration) time.Duration {
	ceil := time.Duration(1<<uint(min(contention, 30))) * time.Millisecond
	if ceil > cap {
		ceil = cap
	}
	floor := time.Millisecond
	if floor > cap {
		floor = cap
	}
	if ceil < floor {
		ceil = floor
	}
	return floor + time.Duration(rng.Int63n(int64(ceil-floor)+1))
}

// Frontier returns the durable sequence frontier of the replica group:
// the highest value any coordinator incarnation ever committed, read
// from a majority (any committed value lives on some majority, which
// intersects the one read). An epoch is fenced first if this coordinator
// holds none, so a displaced predecessor cannot commit new values after
// the read — the property a membership freeze needs when it derives the
// group's all-time block frontier from this value.
func (c *Coordinator) Frontier() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fenced {
		if err := c.fenceLocked(); err != nil {
			return 0, err
		}
	}
	return c.readMaxLocked()
}

// readMaxLocked reads a majority of replica states and returns the
// highest accepted lease. Requires c.mu.
func (c *Coordinator) readMaxLocked() (int64, error) {
	ch := make(chan peerReply, len(c.peers))
	for i := range c.peers {
		go func(i int) {
			var st wireState
			err := c.peers[i].Call(PathState, http.MethodGet, PathState, nil, &st)
			ch <- peerReply{err: err, ack: wireAck{OK: err == nil, State: st}}
		}(i)
	}
	replies := 0
	var max int64
	for range c.peers {
		r := <-ch
		if r.err != nil {
			continue
		}
		replies++
		if r.ack.State.Accepted > max {
			max = r.ack.State.Accepted
		}
		if replies >= c.majority() {
			// Enough: a committed lease lives on some majority, which
			// intersects the majority just read, so max already covers it.
			break
		}
	}
	if replies < c.majority() {
		return 0, ErrNoQuorum
	}
	return max, nil
}

// peerReply is one replica's answer within a round.
type peerReply struct {
	ack wireAck
	err error
}

// round broadcasts a POST to every replica in parallel and returns as
// soon as the round is decided: a majority acked, or a majority nacked
// (then no majority can ack). Only when neither happens, or when every
// is set, does it wait for every replica. Every reply raises c.known to
// the replica's accepted lease; since any committed lease lives on a
// majority, a decided round has seen the frontier. Stragglers (e.g. a
// blackholed replica waiting out its timeout) resolve in the
// background — the buffered channel absorbs them. Requires c.mu.
func (c *Coordinator) round(path string, req any, every bool) (acks, replies int, maxPromised int64) {
	ch := make(chan peerReply, len(c.peers))
	for i := range c.peers {
		go func(i int) {
			var ack wireAck
			err := c.peers[i].Call(path, http.MethodPost, path, req, &ack)
			ch <- peerReply{ack: ack, err: err}
		}(i)
	}
	for range c.peers {
		r := <-ch
		if r.err != nil {
			continue
		}
		replies++
		if r.ack.OK {
			acks++
		}
		if r.ack.State.Promised > maxPromised {
			maxPromised = r.ack.State.Promised
		}
		if r.ack.State.Accepted > c.known {
			c.known = r.ack.State.Accepted
		}
		if !every && (acks >= c.majority() || replies-acks >= c.majority()) {
			break
		}
	}
	return acks, replies, maxPromised
}
