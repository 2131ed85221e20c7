package ts

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// ShardedCounter allocates one-time-token indexes from per-shard leased
// blocks, so concurrent requests almost never contend on a single mutex
// (the scaling bottleneck of LocalCounter under parallel issuance).
//
// Each shard holds a lease on a disjoint block of blockSize consecutive
// indexes carved out of the space of an underlying Counter: one Next call
// on the underlying counter yields block id b, which owns indexes
// (b-1)*blockSize+1 .. b*blockSize. Because the underlying counter hands
// out unique block ids, blocks — and therefore all indexes — are unique
// across shards, across ShardedCounters sharing the underlying counter,
// and across replicated services driving one quorum Coordinator group
// (internal/ts/replica/net).
//
// Indexes are unique and strictly increasing within a shard, but NOT
// globally ordered: at any moment the issued indexes can span up to
// MaxSpread positions. The on-chain bitmap of § IV-C is a sliding
// window — redeeming a far-ahead index advances it and permanently
// rejects indexes that fall behind — so a contract served by a sharded
// counter must size its bitmap as core.SizeFor(lifetime, rate) +
// MaxSpread. The spread bound relies on the round-robin picker feeding
// all shards evenly; it also assumes this counter's traffic keeps
// flowing (a ShardedCounter that goes idle forever while others share
// the same underlying counter can hold leased-but-unissued indexes
// arbitrarily far behind).
//
// Lease abandonment: when the underlying counter is durable (e.g.
// store.Counter), a block's lease is persisted before any index from it
// is handed out. A crashed holder's blocks are therefore BURNED, never
// reclaimed — the restarted counter resumes strictly above its highest
// durable lease, so the leased-but-unissued remainder (at most
// MaxSpread indexes per crash) is permanently skipped. Burning is the
// safe side of the § IV-C at-most-once requirement: reclaiming would
// require knowing which indexes of a partially-used block reached a
// client, which a crash forgets; indexes are plentiful and duplicates
// are fatal. TestShardedCounterLeaseAbandonment pins this contract.
type ShardedCounter struct {
	underlying Counter
	blockSize  int64
	shards     []shard
	pick       atomic.Uint64

	// freeMu guards the adopted free-list: inclusive index ranges handed
	// back by a cleanly shut-down predecessor (see Release/Adopt). Shards
	// drain the free-list before leasing fresh blocks, so reclaimed
	// indexes are reused instead of burned.
	freeMu    sync.Mutex
	free      []store.IndexRange
	reclaimed atomic.Int64
}

// shard is one lease holder. The mutex only guards lease refills and the
// handful of requests that race on the same shard; with shards ≥ GOMAXPROCS
// it is effectively uncontended.
type shard struct {
	mu   sync.Mutex
	next int64    // next index to hand out, 0 = no lease yet
	end  int64    // last index of the current lease (inclusive)
	_    [40]byte // pad to a cache line so shards don't false-share
}

// NewShardedCounter shards the index space of underlying across the given
// number of shards, leasing blockSize indexes at a time. A nil underlying
// uses a fresh LocalCounter. shards and blockSize must be positive;
// shards ≈ GOMAXPROCS and blockSize ≈ 64 work well in practice.
func NewShardedCounter(underlying Counter, shards, blockSize int) (*ShardedCounter, error) {
	if shards < 1 {
		return nil, fmt.Errorf("ts: shard count must be positive, got %d", shards)
	}
	if blockSize < 1 {
		return nil, fmt.Errorf("ts: block size must be positive, got %d", blockSize)
	}
	if underlying == nil {
		underlying = &LocalCounter{}
	}
	return &ShardedCounter{
		underlying: underlying,
		blockSize:  int64(blockSize),
		shards:     make([]shard, shards),
	}, nil
}

// MaxSpread returns the largest distance between the lowest
// still-unissued index held in a lease and the highest issued index:
// shards × blockSize. Add it to core.SizeFor when sizing the contract's
// one-time bitmap, so no fresh token is pushed out of the window by a
// token from a newer block.
func (c *ShardedCounter) MaxSpread() int64 {
	return int64(len(c.shards)) * c.blockSize
}

// Next implements Counter: it returns an index unique across all shards
// (and all counters sharing the same underlying counter).
func (c *ShardedCounter) Next() (int64, error) {
	sh := &c.shards[c.pick.Add(1)%uint64(len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.next == 0 || sh.next > sh.end {
		if r, ok := c.popFree(); ok {
			sh.next, sh.end = r.From, r.To
		} else {
			block, err := c.underlying.Next()
			if err != nil {
				return 0, fmt.Errorf("ts: lease index block: %w", err)
			}
			sh.next = (block-1)*c.blockSize + 1
			sh.end = block * c.blockSize
		}
	}
	n := sh.next
	sh.next++
	return n, nil
}

// popFree takes one adopted range off the free-list.
func (c *ShardedCounter) popFree() (store.IndexRange, bool) {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	if len(c.free) == 0 {
		return store.IndexRange{}, false
	}
	r := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return r, true
}

// Adopt feeds previously released index ranges into the free-list, to be
// issued before any fresh block is leased. The caller owns the safety
// argument: a range must be adopted at most once, and only after its
// release (plus this adoption, for durable setups) is recorded — see
// store.Counter.PendingReclaims for the durable handshake. Adopted
// ranges sit below the current allocation frontier, so they widen the
// issued-index spread beyond MaxSpread by the span down to the lowest
// adopted index — sliding-window bitmap sizing must budget for it.
func (c *ShardedCounter) Adopt(ranges []store.IndexRange) error {
	for _, r := range ranges {
		if r.From < 1 || r.To < r.From {
			return fmt.Errorf("ts: invalid adopted range [%d,%d]", r.From, r.To)
		}
	}
	c.freeMu.Lock()
	c.free = append(c.free, ranges...)
	c.freeMu.Unlock()
	for _, r := range ranges {
		c.reclaimed.Add(r.To - r.From + 1)
	}
	return nil
}

// Release drains every shard's unexhausted lease remainder (and any
// unissued adopted ranges) and returns them, leaving the counter empty-
// handed: the next Next leases a fresh block. It is the clean-shutdown
// half of lease reclamation — the caller persists the ranges (e.g.
// store.Counter.ReleaseRanges) so a successor can Adopt instead of
// burning them. Concurrent Next calls are safe but may race a remainder
// back into use, so callers should stop issuance first.
func (c *ShardedCounter) Release() []store.IndexRange {
	var out []store.IndexRange
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.next != 0 && sh.next <= sh.end {
			out = append(out, store.IndexRange{From: sh.next, To: sh.end})
		}
		sh.next, sh.end = 0, 0
		sh.mu.Unlock()
	}
	c.freeMu.Lock()
	out = append(out, c.free...)
	c.free = nil
	c.freeMu.Unlock()
	return out
}

// Reclaimed returns the total number of indexes this counter adopted
// from predecessors instead of burning — the ts_lease_reclaimed_total
// metric source.
func (c *ShardedCounter) Reclaimed() int64 { return c.reclaimed.Load() }
