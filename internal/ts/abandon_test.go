package ts_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/ts"
	replicanet "repro/internal/ts/replica/net"
)

// TestShardedCounterLeaseAbandonment pins the crash contract documented
// on ShardedCounter: blocks leased by a crashed holder are burned, never
// reclaimed. A restarted service must (a) never re-issue an index a
// previous incarnation issued, and (b) never issue the unissued
// remainder of an abandoned block either — recovery resumes strictly
// above the highest durable lease.
func TestShardedCounterLeaseAbandonment(t *testing.T) {
	const (
		shards    = 2
		blockSize = 8
	)
	dir := t.TempDir()

	openSharded := func() (*store.File, *store.Counter, *ts.ShardedCounter) {
		t.Helper()
		f, err := store.OpenFile(dir, store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := store.OpenCounter(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ts.NewShardedCounter(c, shards, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		return f, c, sc
	}

	// First incarnation: issue enough to hold partially-used leases on
	// both shards, then crash (abandon without Close).
	_, _, sc1 := openSharded()
	issued := make(map[int64]bool)
	var maxIssued int64
	for i := 0; i < 2*blockSize-3; i++ {
		idx, err := sc1.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice pre-crash", idx)
		}
		issued[idx] = true
		if idx > maxIssued {
			maxIssued = idx
		}
	}

	// Second incarnation over the same WAL.
	_, c2, sc2 := openSharded()
	// Every index of every durably leased block — issued or not — is
	// below this fence; recovery must never go back under it.
	fence := c2.Last() * blockSize
	if fence < maxIssued {
		t.Fatalf("recovered high-water %d below an issued index %d: lease not durable", fence, maxIssued)
	}
	for i := 0; i < 3*shards*blockSize; i++ {
		idx, err := sc2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice across the crash", idx)
		}
		if idx <= fence {
			t.Fatalf("index %d reclaimed from an abandoned block (fence %d): "+
				"burned indexes must stay burned", idx, fence)
		}
	}

	// The burn is bounded: one crash skips at most MaxSpread indexes.
	if burned := fence - maxIssued; burned > sc2.MaxSpread() {
		t.Errorf("crash burned %d indexes, exceeding the MaxSpread bound %d", burned, sc2.MaxSpread())
	}
}

// TestShardedCounterLeaseAbandonmentNetworked extends the abandonment
// contract to the networked quorum path: a Token Service frontend
// (coordinator + ShardedCounter) holding partially-used block leases
// dies mid-spread while its replica group simultaneously loses quorum.
// Once a quorum of WAL-backed replicas recovers, a fresh frontend must
// resume strictly above every durably leased block — never re-issuing
// an old index, never reclaiming an abandoned block's remainder — and
// the crash burns at most MaxSpread indexes.
func TestShardedCounterLeaseAbandonmentNetworked(t *testing.T) {
	const (
		shards    = 2
		blockSize = 8
	)
	dir := t.TempDir()

	// Three WAL-backed replicas form the group.
	nodeDir := func(i int) string { return filepath.Join(dir, fmt.Sprintf("n%d", i)) }
	openNode := func(i int) (*store.File, *replicanet.Node) {
		t.Helper()
		f, err := store.OpenFile(nodeDir(i), store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := replicanet.OpenNode(f)
		if err != nil {
			t.Fatal(err)
		}
		return f, n
	}
	backends := make([]*store.File, 3)
	nodes := make([]*replicanet.Node, 3)
	servers := make([]*replicanet.Server, 3)
	urls := make([]string, 3)
	for i := range nodes {
		backends[i], nodes[i] = openNode(i)
		s, err := replicanet.Serve(nodes[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		urls[i] = s.URL()
	}
	t.Cleanup(func() { _ = servers[0].Close(); _ = backends[0].Close() })

	coord1, err := replicanet.NewCoordinator(urls, replicanet.Options{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sc1, err := ts.NewShardedCounter(coord1, shards, blockSize)
	if err != nil {
		t.Fatal(err)
	}

	// First incarnation: partially-used leases on both shards.
	issued := make(map[int64]bool)
	var maxIssued int64
	record := func(idx int64) {
		t.Helper()
		if issued[idx] {
			t.Fatalf("index %d issued twice pre-crash", idx)
		}
		issued[idx] = true
		if idx > maxIssued {
			maxIssued = idx
		}
	}
	for i := 0; i < 2*blockSize-3; i++ {
		idx, err := sc1.Next()
		if err != nil {
			t.Fatal(err)
		}
		record(idx)
	}

	// Quorum loss mid-spread: two of three replicas die. The frontend
	// can drain indexes it already holds block leases for, but the next
	// block refill must fail with ErrNoQuorum — not hang, not invent an
	// unleased block.
	_ = servers[1].Close()
	_ = backends[1].Close()
	_ = servers[2].Close()
	_ = backends[2].Close()
	drained := 0
	for {
		idx, err := sc1.Next()
		if err != nil {
			if !errors.Is(err, replicanet.ErrNoQuorum) {
				t.Fatalf("refill without a quorum failed with %v, want ErrNoQuorum", err)
			}
			break
		}
		record(idx)
		if drained++; drained > shards*blockSize {
			t.Fatal("frontend kept issuing past its leased blocks without a quorum")
		}
	}
	// The frontend now crashes too: sc1/coord1 are abandoned with their
	// partial blocks.

	// Recovery: the two dead replicas restart from their WALs and rejoin
	// (fresh ports — a new frontend discovers the new group membership).
	urls2 := []string{urls[0], "", ""}
	for i := 1; i <= 2; i++ {
		b, n := openNode(i)
		s, err := replicanet.Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close(); _ = b.Close() })
		nodes[i] = n
		urls2[i] = s.URL()
	}

	// Every index of every durably leased block sits below this fence.
	var maxLease int64
	for _, n := range nodes {
		if accepted, _ := n.State(); accepted > maxLease {
			maxLease = accepted
		}
	}
	fence := maxLease * blockSize
	if fence < maxIssued {
		t.Fatalf("recovered high-water %d below an issued index %d: grant not durable", fence, maxIssued)
	}

	coord2, err := replicanet.NewCoordinator(urls2, replicanet.Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := ts.NewShardedCounter(coord2, shards, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*shards*blockSize; i++ {
		idx, err := sc2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice across the crash", idx)
		}
		if idx <= fence {
			t.Fatalf("index %d reclaimed from an abandoned block (fence %d): "+
				"burned indexes must stay burned", idx, fence)
		}
	}

	// The double failure still burns at most MaxSpread indexes.
	if burned := fence - maxIssued; burned > sc2.MaxSpread() {
		t.Errorf("crash burned %d indexes, exceeding the MaxSpread bound %d", burned, sc2.MaxSpread())
	}
}
