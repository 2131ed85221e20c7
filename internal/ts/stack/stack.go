// Package stack opens the Token Service's one-time index counter (§ IV-C)
// in every deployment shape: the sharded counter over nothing (in-memory),
// over a file-backed store.Counter, over the § VII-B replica quorum, or
// over the quorum striped under a membership view that a Manager changes
// at runtime. The daemon, the e2e harness and the crash test all build
// their counters here, so the durability protocol has one home: a journal is
// replayed once and feeds both the reclaim ledger and the membership
// view, lease remainders a previous incarnation released are adopted
// before the counter serves, and Close(true) releases this incarnation's
// remainders into the journal.
package stack

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/ts"
	"repro/internal/ts/membership"
	replicanet "repro/internal/ts/replica/net"
	"repro/internal/ts/ring"
)

// Config selects and sizes one counter stack. With only Shards and Block
// set it is an in-memory counter.
type Config struct {
	// Shards and Block size the sharded counter: Shards issuance lanes,
	// each leasing Block indexes per allocation from the layer below.
	Shards, Block int

	// Dir makes the stack durable. Without Peers it holds the counter's
	// WAL and snapshots; with Member it holds the membership journal
	// (adopted views plus the lease-reclaim ledger). Peers without Member
	// leave durability to the replicas and take no Dir.
	Dir string
	// SnapshotEvery is the file-backed counter's lease count between
	// snapshots (0 = store.DefaultCounterSnapshotEvery). A membership
	// journal never snapshots: that would fold its view records away.
	SnapshotEvery int

	// Peers allocates blocks through a majority quorum of these replica
	// base URLs. Timeout bounds each replica RPC (0 =
	// replicanet.DefaultTimeout).
	Peers   []string
	Timeout time.Duration

	// Member runs dynamic membership over the quorum: this frontend's
	// group draws its slot's blocks under View (ring.DynamicStripe), and
	// a membership Manager changes View at runtime. URLs maps each group
	// of View to its frontend base URL and comes with Member, never
	// without. A view persisted in Dir replaces View and URLs. Empty,
	// the quorum's blocks are issued unchanged: frontends sharing one
	// quorum already issue disjoint indexes.
	Member string
	View   ring.View
	URLs   map[string]string
	// OwnerToken is the bearer secret the Manager sends on member calls
	// to other frontends.
	OwnerToken string

	// Registry receives the store, coordinator and membership series
	// (nil = the process default).
	Registry *metrics.Registry
}

// Counter is an open counter stack: the sharded counter the Token
// Service issues from, plus the layers a deployment drives around it.
type Counter struct {
	*ts.ShardedCounter
	// Coordinator allocates blocks through the replica quorum (nil
	// without Peers).
	Coordinator *replicanet.Coordinator
	// Manager serves the membership protocol (nil without Member).
	Manager *membership.Manager
	// Store is the WAL under Dir (nil without Dir).
	Store *store.File

	reclaims *store.Counter // the reclaim ledger over Store
}

// Open builds the stack cfg describes and adopts every lease remainder a
// previous incarnation released into its journal. PendingReclaims makes
// the adoption durable before returning, so the ranges re-issue at most
// once even if this incarnation crashes. On error, whatever Open opened
// is closed again.
func Open(cfg Config) (_ *Counter, err error) {
	membered := cfg.Member != ""
	switch {
	case membered != (cfg.URLs != nil):
		return nil, errors.New("stack: Member and URLs go together: a stripe runs only under a membership manager")
	case membered && len(cfg.Peers) == 0:
		return nil, errors.New("stack: a membership manager needs Peers")
	case len(cfg.Peers) > 0 && cfg.Dir != "" && !membered:
		return nil, errors.New("stack: Peers move counter durability to the replicas; Dir holds only a membership journal")
	}
	c := &Counter{}
	defer func() {
		if err != nil && c.Store != nil {
			_ = c.Store.Close() // the open error is the one to report
		}
	}()

	view, baseK, urls := cfg.View, int64(0), cfg.URLs
	var journal store.Backend // nil: volatile membership
	if cfg.Dir != "" {
		if c.Store, err = store.OpenFile(cfg.Dir, store.FileOptions{Metrics: cfg.Registry}); err != nil {
			return nil, err
		}
		journal = c.Store
		// The file's Replay is single-shot, and a membership journal has
		// two readers: replay once and feed both.
		snap, recs, err := c.Store.Replay()
		if err != nil {
			return nil, fmt.Errorf("stack: replay %s: %w", cfg.Dir, err)
		}
		snapEvery := cfg.SnapshotEvery
		if membered {
			snapEvery = -1
		}
		if c.reclaims, err = store.CounterFrom(c.Store, snap, recs, snapEvery); err != nil {
			return nil, err
		}
		if membered {
			st, ok, err := membership.StateFromRecords(recs)
			if err != nil {
				return nil, err
			}
			if ok {
				view, baseK, urls = st.View, st.BaseK, st.URLs
			}
		}
	}

	var under ts.Counter // nil: the sharded counter's own LocalCounter
	switch {
	case len(cfg.Peers) > 0:
		if c.Coordinator, err = replicanet.NewCoordinator(cfg.Peers, replicanet.Options{Timeout: cfg.Timeout, Metrics: cfg.Registry}); err != nil {
			return nil, err
		}
		under = c.Coordinator
	case c.reclaims != nil:
		under = c.reclaims
	}
	var stripe *ring.DynamicStripe
	if membered {
		if stripe, err = ring.NewDynamicStripe(under, cfg.Member, view, baseK); err != nil {
			return nil, err
		}
		under = stripe
	}
	if c.ShardedCounter, err = ts.NewShardedCounter(under, cfg.Shards, cfg.Block); err != nil {
		return nil, err
	}
	if membered {
		c.Manager, err = membership.NewManager(membership.Config{
			Group:      cfg.Member,
			Stripe:     stripe,
			Counter:    c.ShardedCounter,
			Journal:    journal,
			Reclaims:   c.reclaims,
			Registry:   cfg.Registry,
			OwnerToken: cfg.OwnerToken,
		}, view, urls, baseK)
		if err != nil {
			return nil, err
		}
	}
	if c.reclaims != nil {
		pending, err := c.reclaims.PendingReclaims()
		if err != nil {
			return nil, err
		}
		if err := c.Adopt(pending); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close ends the stack. With release, a clean shutdown, the unexhausted
// block-lease remainders are first journaled as reclaim offers, so the
// next Open adopts and re-issues them instead of burning them; callers
// stop issuance first. Without, they burn as after a crash. A volatile
// stack has nothing to journal or close.
func (c *Counter) Close(release bool) error {
	var err error
	if release && c.reclaims != nil {
		if err = c.reclaims.ReleaseRanges(c.Release()); err != nil {
			err = fmt.Errorf("stack: release block leases: %w", err)
		}
	}
	if c.Store != nil {
		err = errors.Join(err, c.Store.Close())
	}
	return err
}
