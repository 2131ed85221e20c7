package ts

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	replicanet "repro/internal/ts/replica/net"
)

func TestShardedCounterRejectsBadParameters(t *testing.T) {
	if _, err := NewShardedCounter(nil, 0, 64); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, err := NewShardedCounter(nil, -1, 64); err == nil {
		t.Error("shards=-1 accepted")
	}
	if _, err := NewShardedCounter(nil, 4, 0); err == nil {
		t.Error("blockSize=0 accepted")
	}
}

// collectConcurrent drains n indexes from c with the given parallelism
// and fails the test on any duplicate.
func collectConcurrent(t *testing.T, c Counter, workers, perWorker int) map[int64]bool {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[int64]bool, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int64, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				n, err := c.Next()
				if err != nil {
					t.Error(err)
					return
				}
				local = append(local, n)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, n := range local {
				if n < 1 {
					t.Errorf("index %d < 1", n)
				}
				if seen[n] {
					t.Errorf("index %d allocated twice", n)
				}
				seen[n] = true
			}
		}()
	}
	wg.Wait()
	return seen
}

func TestShardedCounterUniqueUnderConcurrency(t *testing.T) {
	c, err := NewShardedCounter(nil, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := collectConcurrent(t, c, 16, 500)
	if len(seen) != 16*500 {
		t.Errorf("got %d unique indexes, want %d", len(seen), 16*500)
	}
}

func TestShardedCountersShareUnderlyingSpace(t *testing.T) {
	// Two sharded frontends over one underlying counter — the multi-TS
	// deployment — must still never collide.
	underlying := &LocalCounter{}
	a, err := NewShardedCounter(underlying, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardedCounter(underlying, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := collectConcurrent(t, a, 8, 200)
	for n := range collectConcurrent(t, b, 8, 200) {
		if seen[n] {
			t.Errorf("index %d allocated by both frontends", n)
		}
	}
}

// TestShardedCounterSpreadBound checks the documented bitmap-sizing
// contract: every issued index stays within MaxSpread of the highest
// index issued so far, so a bitmap with MaxSpread slack never slides a
// fresh index out of its window.
func TestShardedCounterSpreadBound(t *testing.T) {
	c, err := NewShardedCounter(nil, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.MaxSpread(); got != 8*16 {
		t.Fatalf("MaxSpread() = %d, want %d", got, 8*16)
	}
	var maxSeen int64
	for i := 0; i < 5000; i++ {
		n, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n <= maxSeen-c.MaxSpread() {
			t.Fatalf("allocation %d: index %d is %d behind max %d, beyond MaxSpread %d",
				i, n, maxSeen-n, maxSeen, c.MaxSpread())
		}
		if n > maxSeen {
			maxSeen = n
		}
	}
}

// startQuorum serves three volatile counter replicas on loopback and
// returns their servers and a coordinator dialing them.
func startQuorum(t *testing.T) ([]*replicanet.Server, *replicanet.Coordinator) {
	t.Helper()
	servers := make([]*replicanet.Server, 3)
	urls := make([]string, 3)
	for i := range servers {
		s, err := replicanet.Serve(replicanet.NewNode(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[i], urls[i] = s, s.URL()
	}
	coord, err := replicanet.NewCoordinator(urls, replicanet.Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return servers, coord
}

func TestShardedCounterOverQuorum(t *testing.T) {
	_, coord := startQuorum(t)
	c, err := NewShardedCounter(coord, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	collectConcurrent(t, c, 8, 100)
}

func TestShardedCounterPropagatesUnderlyingErrors(t *testing.T) {
	servers, coord := startQuorum(t)
	c, err := NewShardedCounter(coord, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	_ = servers[0].Close()
	_ = servers[1].Close()
	// The current lease still has one index; after it drains, the next
	// lease must surface ErrNoQuorum.
	if _, err := c.Next(); err != nil {
		t.Fatalf("leased index after partial crash: %v", err)
	}
	if _, err := c.Next(); !errors.Is(err, replicanet.ErrNoQuorum) {
		t.Errorf("err = %v, want ErrNoQuorum", err)
	}
}

// TestShardedCounterReleaseAdopt drives the clean-shutdown half of lease
// reclamation: a successor adopting the released remainders issues every
// released index exactly once before leasing any fresh block, so a
// graceful restart leaves no gap in the index space.
func TestShardedCounterReleaseAdopt(t *testing.T) {
	under := &LocalCounter{}
	first, err := NewShardedCounter(under, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	issued := make(map[int64]bool)
	for i := 0; i < 40; i++ {
		n, err := first.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[n] {
			t.Fatalf("index %d issued twice", n)
		}
		issued[n] = true
	}
	released := first.Release()
	if len(released) != 2 {
		t.Fatalf("released %d ranges, want 2 (one per shard): %+v", len(released), released)
	}
	if more := first.Release(); len(more) != 0 {
		t.Fatalf("second Release returned %+v, want nothing", more)
	}

	second, err := NewShardedCounter(under, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Adopt(released); err != nil {
		t.Fatal(err)
	}
	wantReclaimed := int64(0)
	for _, r := range released {
		wantReclaimed += r.To - r.From + 1
	}
	if got := second.Reclaimed(); got != wantReclaimed {
		t.Fatalf("Reclaimed = %d, want %d", got, wantReclaimed)
	}

	// 2 shards × 64 block = 128 indexes in the first two blocks; the
	// successor must fill every remaining hole before touching block 3.
	for i := 0; i < 128-40; i++ {
		n, err := second.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[n] {
			t.Fatalf("adopted index %d issued twice", n)
		}
		issued[n] = true
	}
	for i := int64(1); i <= 128; i++ {
		if !issued[i] {
			t.Fatalf("index %d never issued: gap across graceful restart", i)
		}
	}

	if err := second.Adopt([]store.IndexRange{{From: 9, To: 3}}); err == nil {
		t.Fatal("invalid adopted range accepted")
	}
}
