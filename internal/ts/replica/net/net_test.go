package net

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nettest"
	"repro/internal/store"
)

// startGroup serves n fresh volatile nodes and returns their servers
// and base URLs.
func startGroup(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	urls := make([]string, n)
	for i := range servers {
		s, err := Serve(NewNode(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[i] = s
		urls[i] = s.URL()
	}
	return servers, urls
}

func newCoordinator(t *testing.T, urls []string) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(urls, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoordinatorFrontier pins what a membership freeze relies on: the
// frontier covers every lease any coordinator incarnation ever
// committed — including one a fresh coordinator (a restarted frontend)
// has never seen — and fails closed without a quorum. A lone
// coordinator on a fresh group allocates the dense sequence 1, 2, 3, …
func TestCoordinatorFrontier(t *testing.T) {
	servers, urls := startGroup(t, 3)
	c1 := newCoordinator(t, urls)
	var last int64
	for want := int64(1); want <= 10; want++ {
		v, err := c1.Next()
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("Next = %d, want %d", v, want)
		}
		last = v
	}
	c2 := newCoordinator(t, urls) // restarted frontend: empty local state
	got, err := c2.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if got < last {
		t.Fatalf("Frontier = %d, below committed lease %d", got, last)
	}
	if c2.Epoch() == 0 {
		t.Fatal("Frontier did not fence an epoch first")
	}
	for _, s := range servers[:2] {
		_ = s.Close()
	}
	if _, err := c2.Frontier(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Frontier without quorum = %v, want ErrNoQuorum", err)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(nil, Options{}); err == nil {
		t.Error("empty peer set accepted")
	}
	if _, err := NewCoordinator([]string{"a", "b"}, Options{}); err == nil {
		t.Error("even peer set accepted")
	}
}

// The core uniqueness property over a real network stack: concurrent
// coordinators (distinct frontends, shared replica group) never commit
// the same lease, and every committed lease is positive and strictly
// increasing per coordinator.
func TestConcurrentCoordinatorsAllocateUniqueLeases(t *testing.T) {
	_, urls := startGroup(t, 3)
	const (
		coordinators = 4
		perCoord     = 25
	)
	var (
		mu     sync.Mutex
		seen   = make(map[int64]int, coordinators*perCoord)
		wg     sync.WaitGroup
		failed = make(chan error, coordinators)
	)
	for cdx := 0; cdx < coordinators; cdx++ {
		wg.Add(1)
		go func(cdx int) {
			defer wg.Done()
			c := newCoordinator(t, urls)
			last := int64(0)
			for i := 0; i < perCoord; i++ {
				v, err := c.Next()
				if err != nil {
					failed <- fmt.Errorf("coordinator %d: %w", cdx, err)
					return
				}
				if v <= last {
					failed <- fmt.Errorf("coordinator %d: lease %d not increasing after %d", cdx, v, last)
					return
				}
				last = v
				mu.Lock()
				if prev, dup := seen[v]; dup {
					mu.Unlock()
					failed <- fmt.Errorf("lease %d committed by both coordinator %d and %d", v, prev, cdx)
					return
				}
				seen[v] = cdx
				mu.Unlock()
			}
		}(cdx)
	}
	wg.Wait()
	close(failed)
	for err := range failed {
		t.Fatal(err)
	}
	if len(seen) != coordinators*perCoord {
		t.Fatalf("committed %d leases, want %d", len(seen), coordinators*perCoord)
	}
}

// Killing one of three replicas must not stall allocation.
func TestKillOneOfThreeContinues(t *testing.T) {
	servers, urls := startGroup(t, 3)
	c := newCoordinator(t, urls)
	v1, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	var last int64 = v1
	for i := 0; i < 5; i++ {
		v, err := c.Next()
		if err != nil {
			t.Fatalf("allocation %d with one dead replica: %v", i, err)
		}
		if v <= last {
			t.Fatalf("lease %d not increasing after %d", v, last)
		}
		last = v
	}
}

// Two dead replicas of three is a lost quorum: allocation must fail
// with ErrNoQuorum, not hang and not hand out a lease.
func TestKillTwoOfThreeNoQuorum(t *testing.T) {
	servers, urls := startGroup(t, 3)
	c, err := NewCoordinator(urls, Options{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	_ = servers[0].Close()
	_ = servers[2].Close()
	if _, err := c.Next(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("allocation without a quorum returned %v, want ErrNoQuorum", err)
	}
}

// A killed replica that rejoins at the same address is readmitted by
// the coordinator and caught up by the first grant it acks.
func TestRejoinCatchesUp(t *testing.T) {
	servers, urls := startGroup(t, 3)
	c := newCoordinator(t, urls)
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}

	addr := servers[2].Addr()
	node := servers[2].Node()
	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	var frontier int64
	for i := 0; i < 10; i++ {
		v, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		frontier = v
	}

	// Rejoin: same node state machine, same address. The port can
	// occasionally still be in TIME_WAIT; retry briefly.
	var revived *Server
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if revived, err = Serve(node, addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rejoin at %s: %v", addr, err)
	}
	defer revived.Close()

	// The coordinator returns on the first majority, which the two
	// replicas that never left can form alone: keep allocating until a
	// grant reaches the revived one, under a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
		accepted, _ := node.State()
		if accepted > frontier {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined replica accepted=%d, want caught up past %d", accepted, frontier)
		}
	}
}

// Epoch fencing: a second coordinator fencing a higher epoch preempts
// the first, which must refence (not stall, not duplicate) — both keep
// committing unique leases.
func TestEpochFencingPreemption(t *testing.T) {
	_, urls := startGroup(t, 3)
	a := newCoordinator(t, urls)
	b := newCoordinator(t, urls)

	va, err := a.Next()
	if err != nil {
		t.Fatal(err)
	}
	epochA := a.Epoch()

	vb, err := b.Next() // fences above a's epoch
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch() <= epochA {
		t.Fatalf("b fenced epoch %d, want > a's %d", b.Epoch(), epochA)
	}
	if vb <= va {
		t.Fatalf("b committed %d, want > a's %d", vb, va)
	}

	va2, err := a.Next() // preempted: must refence and still commit
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch() <= b.Epoch() {
		t.Fatalf("a refenced to epoch %d, want > b's %d", a.Epoch(), b.Epoch())
	}
	if va2 <= vb {
		t.Fatalf("a committed %d after preemption, want > %d", va2, vb)
	}
}

// WAL-backed replicas must never help re-commit a lease across a crash:
// restart every node from its log and verify allocation resumes
// strictly above the pre-crash frontier, and that epoch promises
// survive too.
func TestDurableNodesNeverReissueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	backends := make([]*store.File, 3)
	servers := make([]*Server, 3)
	urls := make([]string, 3)
	for i := range servers {
		b, err := store.OpenFile(filepath.Join(dir, fmt.Sprintf("n%d", i)), store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
		node, err := OpenNode(b)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Serve(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		urls[i] = s.URL()
	}

	c := newCoordinator(t, urls)
	var frontier int64
	for i := 0; i < 8; i++ {
		v, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		frontier = v
	}
	epochBefore := c.Epoch()

	// Crash everything (servers down, backends closed without snapshot).
	for i := range servers {
		_ = servers[i].Close()
		_ = backends[i].Close()
	}

	// Restart each replica from its WAL on the same address.
	urls2 := make([]string, 3)
	for i := range servers {
		b, err := store.OpenFile(filepath.Join(dir, fmt.Sprintf("n%d", i)), store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		node, err := OpenNode(b)
		if err != nil {
			t.Fatal(err)
		}
		accepted, promised := node.State()
		if accepted < frontier && i == 0 {
			// Individual replicas may lag (a majority suffices), but none
			// may have lost a journaled grant below what it acked; the
			// group-level check below is the real gate.
			t.Logf("replica %d restarted at accepted=%d promised=%d", i, accepted, promised)
		}
		var s *Server
		for attempt := 0; attempt < 50; attempt++ {
			if s, err = Serve(node, servers[i].Addr()); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		urls2[i] = s.URL()
	}

	// A fresh coordinator (simulating a restarted frontend) must resume
	// strictly above every pre-crash lease.
	c2 := newCoordinator(t, urls2)
	v, err := c2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if v <= frontier {
		t.Fatalf("post-restart lease %d ≤ pre-crash frontier %d: reissue", v, frontier)
	}
	// And its fencing must have had to climb above the durable promises.
	if c2.Epoch() <= epochBefore {
		t.Fatalf("post-restart epoch %d ≤ pre-crash epoch %d: promises not durable", c2.Epoch(), epochBefore)
	}
}

// OpenNode must reject a backend carrying a foreign snapshot rather
// than silently ignoring state.
func TestOpenNodeRejectsSnapshot(t *testing.T) {
	m := store.NewMemory()
	if err := m.Snapshot([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenNode(m); err == nil {
		t.Fatal("backend with snapshot accepted")
	}
}

// Direct state-machine checks: fence and grant ordering rules.
func TestNodeProtocolRules(t *testing.T) {
	n := NewNode()
	if ack, _ := n.Fence(3); !ack.OK {
		t.Fatal("first fence rejected")
	}
	if ack, _ := n.Fence(3); ack.OK {
		t.Fatal("equal epoch re-promised")
	}
	if ack, _ := n.Fence(2); ack.OK {
		t.Fatal("lower epoch promised")
	}
	if ack, _ := n.Grant(2, 1); ack.OK {
		t.Fatal("grant under a fenced-off epoch accepted")
	}
	if ack, _ := n.Grant(3, 1); !ack.OK {
		t.Fatal("valid grant rejected")
	}
	if ack, _ := n.Grant(3, 1); ack.OK {
		t.Fatal("duplicate lease re-granted")
	}
	if ack, _ := n.Grant(4, 5); !ack.OK {
		t.Fatal("grant under a newer epoch rejected")
	}
	if _, promised := n.State(); promised != 4 {
		t.Fatalf("grant under epoch 4 left promise at %d", promised)
	}
}

// A fence body larger than maxRequestBytes is refused with a 4xx before
// the decoder finishes it, so the padded epoch is never promised; a
// normal fence on the same handler still acks.
func TestNodeRejectsOversizeBody(t *testing.T) {
	n := NewNode()
	h := n.Handler()
	pad := strings.Repeat("x", 2*maxRequestBytes)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathFence,
		strings.NewReader(`{"epoch":5,"pad":"`+pad+`"}`)))
	if rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("oversize fence: status %d, want 4xx", rec.Code)
	}
	if accepted, promised := n.State(); accepted != 0 || promised != 0 {
		t.Fatalf("oversize fence changed state to (%d, %d)", accepted, promised)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathFence, strings.NewReader(`{"epoch":5}`)))
	var ack wireAck
	if err := json.NewDecoder(rec.Body).Decode(&ack); rec.Code != http.StatusOK || err != nil || !ack.OK {
		t.Fatalf("normal fence: status %d, ack %+v, err %v", rec.Code, ack, err)
	}
	if _, promised := n.State(); promised != 5 {
		t.Fatalf("normal fence left promise at %d, want 5", promised)
	}
}

// A replica whose reply never ends must cost the coordinator a prompt
// failed RPC at the reply cap, not an unbounded read until the RPC
// deadline.
func TestCoordinatorCapsEndlessReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(nettest.Endless))
	t.Cleanup(srv.Close)
	const timeout = 30 * time.Second
	c, err := NewCoordinator([]string{srv.URL}, Options{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Next(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("endless replica: err = %v, want ErrNoQuorum", err)
	}
	if d := time.Since(start); d > timeout/2 {
		t.Fatalf("endless reply took %v to fail", d)
	}
}
