package store

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Counter is a durable one-time-index allocator: it satisfies the Token
// Service's ts.Counter interface and writes a KindLease record for every
// value it hands out, so a restarted service never re-issues an index.
//
// It is meant to sit UNDER a ts.ShardedCounter: there it allocates block
// ids, so one WAL append (one fsync, amortized further by group commit)
// covers a whole block of token indexes. A crash burns the
// leased-but-unused remainder of every open block — replay resumes
// strictly above the highest durable lease and never reclaims the gap.
// Burning is the safe side of the paper's § IV-C at-most-once
// requirement: indexes are plentiful, duplicates are fatal.
//
// Every SnapshotEvery leases the counter folds its WAL into an 8-byte
// snapshot so the log never grows past a bounded tail.
type Counter struct {
	mu        sync.Mutex
	b         Backend
	next      int64
	sinceSnap int
	// SnapshotEvery bounds WAL growth: after this many leases the counter
	// snapshots its high-water mark and rotates the log. 0 uses
	// DefaultCounterSnapshotEvery; negative disables snapshots.
	snapshotEvery int
	// pending holds reclaimed-but-not-adopted index ranges found during
	// replay, consumed (exactly once) by PendingReclaims.
	pending []IndexRange
}

// IndexRange is an inclusive range of one-time indexes released back to
// the store by a cleanly shutting-down frontend.
type IndexRange struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// DefaultCounterSnapshotEvery is the lease count between counter
// snapshots when CounterOptions leave it unset.
const DefaultCounterSnapshotEvery = 4096

// OpenCounter replays the backend and returns a counter that resumes
// strictly above every durable lease. snapshotEvery 0 selects
// DefaultCounterSnapshotEvery; negative disables snapshotting.
func OpenCounter(b Backend, snapshotEvery int) (*Counter, error) {
	snap, recs, err := b.Replay()
	if err != nil {
		return nil, fmt.Errorf("store: replay counter: %w", err)
	}
	return CounterFrom(b, snap, recs, snapshotEvery)
}

// CounterFrom builds a counter from an already-replayed backend — used
// when one backend's replay feeds several consumers.
func CounterFrom(b Backend, snapshot []byte, recs []Record, snapshotEvery int) (*Counter, error) {
	if snapshotEvery == 0 {
		snapshotEvery = DefaultCounterSnapshotEvery
	}
	c := &Counter{b: b, snapshotEvery: snapshotEvery}
	if snapshot != nil {
		if len(snapshot) != 8 {
			return nil, fmt.Errorf("store: counter snapshot must be 8 bytes, got %d", len(snapshot))
		}
		c.next = int64(binary.BigEndian.Uint64(snapshot))
	}
	// Pending reclaim accounting: a range is offerable when a KindReclaim
	// for it is durable and no KindAdopt has consumed it. Both kinds use
	// the same encoding, so matching is exact by (from, to). Ranges whose
	// records were folded into a snapshot are burned — the safe direction.
	adopted := make(map[IndexRange]int)
	for _, rec := range recs {
		switch rec.Kind {
		case KindLease:
			if rec.Value > c.next {
				c.next = rec.Value
			}
		case KindAdopt:
			if r, err := decodeRange(rec); err == nil {
				adopted[r]++
			}
		}
	}
	for _, rec := range recs {
		if rec.Kind != KindReclaim {
			continue
		}
		r, err := decodeRange(rec)
		if err != nil {
			return nil, fmt.Errorf("store: corrupt reclaim record: %w", err)
		}
		if adopted[r] > 0 {
			adopted[r]--
			continue
		}
		c.pending = append(c.pending, r)
	}
	return c, nil
}

func decodeRange(rec Record) (IndexRange, error) {
	if len(rec.Data) != 8 {
		return IndexRange{}, fmt.Errorf("range payload must be 8 bytes, got %d", len(rec.Data))
	}
	r := IndexRange{From: rec.Value, To: int64(binary.BigEndian.Uint64(rec.Data))}
	if r.From < 1 || r.To < r.From {
		return IndexRange{}, fmt.Errorf("invalid range [%d,%d]", r.From, r.To)
	}
	return r, nil
}

func encodeRange(kind RecordKind, r IndexRange) Record {
	data := make([]byte, 8)
	binary.BigEndian.PutUint64(data, uint64(r.To))
	return Record{Kind: kind, Value: r.From, Data: data}
}

// appendRanges validates every range, then journals one kind record per
// range in a single AppendBatch (one fsync for the whole ledger update).
// op names the operation in errors.
func (c *Counter) appendRanges(kind RecordKind, op string, ranges []IndexRange) error {
	recs := make([]Record, len(ranges))
	for i, r := range ranges {
		if r.From < 1 || r.To < r.From {
			return fmt.Errorf("store: invalid %s range [%d,%d]", op, r.From, r.To)
		}
		recs[i] = encodeRange(kind, r)
	}
	if err := c.b.AppendBatch(recs); err != nil {
		return fmt.Errorf("store: persist %d %s ranges: %w", len(ranges), op, err)
	}
	return nil
}

// ReleaseRanges durably records inclusive index ranges handed back by a
// cleanly shutting-down frontend (the unexhausted remainders of its
// block leases). The ranges become offerable to the next incarnation via
// PendingReclaims; until one adopts them, replay keeps offering, and a
// crash during or right after this call at worst burns them (a durable
// prefix of the offers is offered, the rest is burned).
func (c *Counter) ReleaseRanges(ranges []IndexRange) error {
	return c.appendRanges(KindReclaim, "release", ranges)
}

// AdoptRanges durably consumes reclaim offers on behalf of an external
// adopter: one KindAdopt record per range is appended, in one batch,
// before returning, so no later replay offers the range again. A
// membership drain uses it to close the handoff ledger — the controller
// journals the drained ranges as offers (ReleaseRanges), consumes them
// here, and only then hands them to the successor frontend, so a crash
// anywhere in between re-issues each range at most once. A crash
// mid-batch leaves a durable prefix of the adopts, which only burns the
// adopted ranges: none was handed on yet.
func (c *Counter) AdoptRanges(ranges []IndexRange) error {
	return c.appendRanges(KindAdopt, "adopt", ranges)
}

// PendingReclaims adopts and returns the index ranges a previous
// incarnation released. The KindAdopt records for every range are
// durable (one batch) BEFORE the ranges are returned, so the caller may
// re-issue their indexes immediately: a crash at any later point replays
// reclaim+adopt and offers nothing again, and a crash mid-batch burns
// the durably adopted prefix and re-offers the rest — none of it was
// returned yet. Calling it twice returns ranges released (and replayed)
// since the first call — normally none.
func (c *Counter) PendingReclaims() ([]IndexRange, error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	if err := c.appendRanges(KindAdopt, "adopt", pending); err != nil {
		return nil, err
	}
	return pending, nil
}

// Last returns the highest index handed out so far (0 before the first
// Next). After recovery it is ≥ every index any previous incarnation
// ever returned.
func (c *Counter) Last() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next
}

// Next implements ts.Counter. The lease record is durable before the
// value is returned: an index (or block id) the caller ever observes can
// never be issued again, even across a crash at any point.
func (c *Counter) Next() (int64, error) {
	c.mu.Lock()
	c.next++
	n := c.next
	snap := false
	if c.snapshotEvery > 0 {
		c.sinceSnap++
		if c.sinceSnap >= c.snapshotEvery {
			c.sinceSnap = 0
			snap = true
		}
	}
	c.mu.Unlock()

	// Append outside the allocator mutex: group commit coalesces the
	// fsyncs of concurrent allocations. Out-of-order durability is safe —
	// if lease n is durable while n-1 is not, n-1's Next has not returned
	// yet, so no index from its block was ever observed.
	if err := c.b.Append(Record{Kind: KindLease, Value: n}); err != nil {
		return 0, fmt.Errorf("store: persist lease %d: %w", n, err)
	}
	if snap {
		// Hold the allocator mutex across the rotation so no lease can be
		// allocated (and appended into the generation being retired) after
		// the high-water mark is read: every lease the snapshot subsumes
		// is ≤ the snapshotted value.
		c.mu.Lock()
		var blob [8]byte
		binary.BigEndian.PutUint64(blob[:], uint64(c.next))
		err := c.b.Snapshot(blob[:])
		c.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("store: snapshot counter: %w", err)
		}
	}
	return n, nil
}
