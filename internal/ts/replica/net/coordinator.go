package net

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrNoQuorum is returned when fewer than a majority of replicas respond.
var ErrNoQuorum = errors.New("replica: quorum unavailable")

const (
	// DefaultTimeout bounds each replica RPC. A partitioned (blackholed)
	// replica costs at most this long, and the parallel fan-out with
	// early majority return means it usually costs nothing.
	DefaultTimeout = 2 * time.Second
	// maxProposeRounds bounds grant retries under contention.
	maxProposeRounds = 64
	// maxFenceRounds bounds epoch escalation against dueling
	// coordinators. It matches maxProposeRounds: several coordinators
	// refencing concurrently (e.g. a cold fleet start, or the race
	// detector slowing every round) can legitimately collide for
	// dozens of rounds before the jittered backoff desynchronizes them.
	maxFenceRounds = 64
	// downAfter is the consecutive-failure count at which a replica is
	// suspected down.
	downAfter = 3
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
	// Client overrides the HTTP client (nil = a pooled default).
	Client *http.Client
	// Metrics receives coordinator counters (nil = the process default
	// registry).
	Metrics *metrics.Registry
	// BackoffCap bounds a single contention-backoff sleep
	// (0 = DefaultBackoffCap).
	BackoffCap time.Duration
	// BackoffSeed seeds the backoff jitter (0 = derived from the global
	// source). Fixing it makes contention timing reproducible in tests.
	BackoffSeed int64
}

// Coordinator is the client side of the protocol: it implements
// ts.Counter by fencing an epoch and then committing leases with
// majority acks. It is safe for concurrent use (allocations from one
// coordinator are serialized; run several coordinators for parallelism —
// indexes stay unique across all of them). The group tolerates
// ⌊(N−1)/2⌋ unreachable replicas.
type Coordinator struct {
	peers   []string
	client  *http.Client
	timeout time.Duration

	// fails[i] counts consecutive failed RPCs to peers[i] — the failure
	// detector. Atomics because straggler RPCs from an early-returned
	// round report after the round moved on.
	fails []atomic.Int32

	mu     sync.Mutex
	epoch  int64
	fenced bool
	// contention grows on every preemption and resets on a committed
	// lease; it drives the exponential backoff that desynchronizes
	// dueling coordinators.
	contention int
	// rng drives backoff jitter; per-coordinator (and mu-guarded) so a
	// fixed BackoffSeed gives a reproducible delay sequence.
	rng        *rand.Rand
	backoffCap time.Duration

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
		opts.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
		}}
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = DefaultBackoffCap
	}
	seed := opts.BackoffSeed
	if seed == 0 {
		seed = rand.Int63()
	}
	return &Coordinator{
		peers:      append([]string(nil), peers...),
		client:     opts.Client,
		timeout:    opts.Timeout,
		fails:      make([]atomic.Int32, len(peers)),
		rng:        rand.New(rand.NewSource(seed)),
		backoffCap: opts.BackoffCap,
		grantRetries: metrics.Or(opts.Metrics).Counter(MetricGrantRetries,
			"Coordinator grant rounds retried after a lost lease race or epoch preemption."),
	}, nil
}

// Peers returns the replica base URLs the coordinator speaks to.
func (c *Coordinator) Peers() []string { return append([]string(nil), c.peers...) }

// Epoch returns the currently established epoch (0 before the first
// successful fence).
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Down returns the peers currently suspected down: those whose last
// downAfter (or more) RPCs all failed. A single successful RPC clears
// the suspicion — rejoined replicas are readmitted immediately.
func (c *Coordinator) Down() []string {
	var down []string
	for i := range c.fails {
		if c.fails[i].Load() >= downAfter {
			down = append(down, c.peers[i])
		}
	}
	return down
}

func (c *Coordinator) majority() int { return len(c.peers)/2 + 1 }

// Next implements ts.Counter: fence if needed, read the majority
// frontier, and commit max+1 with majority acks. Returns
// ErrNoQuorum while a majority of replicas is unreachable.
func (c *Coordinator) Next() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for round := 0; round < maxProposeRounds; round++ {
		if !c.fenced {
			if err := c.fenceLocked(); err != nil {
				return 0, err
			}
		}
		max, err := c.readMaxLocked()
		if err != nil {
			return 0, err
		}
		candidate := max + 1
		acks, replies, maxPromised := c.round(PathGrant, wireGrantRequest{Epoch: c.epoch, Lease: candidate})
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
		// Otherwise we lost a lease race under a valid epoch; loop with a
		// fresh read.
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
		acks, replies, maxPromised := c.round(PathFence, wireFenceRequest{Epoch: candidate})
		if acks >= c.majority() {
			c.epoch = candidate
			c.fenced = true
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
// backoffCap, so coordinators that keep preempting each other
// desynchronize instead of livelocking — the standard answer to Paxos's
// dueling proposers. Requires c.mu (the sleep intentionally holds the
// allocation lock: letting another local allocation barge in would just
// duel again).
func (c *Coordinator) backoffLocked() {
	if c.contention < 16 {
		c.contention++
	}
	time.Sleep(backoffDelay(c.contention, c.rng, c.backoffCap))
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
			err := c.get(c.peers[i]+PathState, &st)
			c.note(i, err)
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

// round broadcasts a POST to every replica in parallel and gathers
// until a majority acks or everyone answered. Stragglers (e.g. a
// blackholed replica waiting out its timeout) resolve in the
// background — the buffered channel absorbs them, and their outcome
// still feeds the failure detector via note.
func (c *Coordinator) round(path string, req any) (acks, replies int, maxPromised int64) {
	ch := make(chan peerReply, len(c.peers))
	for i := range c.peers {
		go func(i int) {
			ack, err := c.post(c.peers[i]+path, req)
			c.note(i, err)
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
		if acks >= c.majority() {
			return acks, replies, maxPromised
		}
	}
	return acks, replies, maxPromised
}

// note feeds the failure detector: errors increment the peer's
// consecutive-failure count, successes clear it.
func (c *Coordinator) note(peer int, err error) {
	if err != nil {
		c.fails[peer].Add(1)
	} else {
		c.fails[peer].Store(0)
	}
}

func (c *Coordinator) post(url string, req any) (wireAck, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return wireAck{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return wireAck{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var ack wireAck
	if err := c.do(hreq, &ack); err != nil {
		return wireAck{}, err
	}
	return ack, nil
}

func (c *Coordinator) get(url string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return c.do(hreq, v)
}

func (c *Coordinator) do(req *http.Request, v any) error {
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica/net: %s: status %d", req.URL.Path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
