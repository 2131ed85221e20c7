package ring

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// arcShares measures each group's exact share of the 2^64 hash circle
// (no key sampling noise): the arc ending at a virtual node belongs to
// that node's group.
func arcShares(r *Ring) map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	shares := make(map[string]float64, len(r.groups))
	var total float64
	for i, p := range r.points {
		var arc uint64
		if i == 0 {
			arc = p.hash + (^uint64(0) - r.points[len(r.points)-1].hash) + 1
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		shares[p.group] += float64(arc)
		total += float64(arc)
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares
}

// TestRingProperties is the seeded 1000-iteration property check: for
// random group counts, (a) the keyspace split is balanced within 10% of
// the ideal share, and (b) adding or removing one group moves only ~1/N
// of the keyspace — and strictly only the keys that must move (adding a
// group steals keys exclusively for the new group; removing one
// reassigns exclusively the removed group's keys).
func TestRingProperties(t *testing.T) {
	const (
		seed      = 20260807
		balance   = 0.10 // max relative deviation from the ideal share
		keysPerIt = 2048
	)
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	rng := rand.New(rand.NewSource(seed))
	for it := 0; it < iters; it++ {
		n := 2 + rng.Intn(7) // 2..8 groups
		r := New(0)
		groups := make([]string, n)
		for g := range groups {
			groups[g] = fmt.Sprintf("iter%d-g%d", it, g)
			r.Add(groups[g])
		}

		// (a) Balance: every group's exact arc share within ±10% of 1/n.
		shares := arcShares(r)
		if len(shares) != n {
			t.Fatalf("iter %d: %d groups on ring, want %d", it, len(shares), n)
		}
		ideal := 1.0 / float64(n)
		for g, share := range shares {
			if dev := (share - ideal) / ideal; dev > balance || dev < -balance {
				t.Fatalf("iter %d: group %s owns %.4f of the keyspace, ideal %.4f (dev %+.1f%%)",
					it, g, share, ideal, 100*dev)
			}
		}

		// (b) Movement on add: sample keys, add one group, diff.
		keys := make([][]byte, keysPerIt)
		before := make([]string, keysPerIt)
		for i := range keys {
			keys[i] = make([]byte, 20)
			rng.Read(keys[i])
			g, err := r.Get(keys[i])
			if err != nil {
				t.Fatal(err)
			}
			before[i] = g
		}
		added := fmt.Sprintf("iter%d-added", it)
		r.Add(added)
		moved := 0
		for i, key := range keys {
			g, err := r.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if g == before[i] {
				continue
			}
			if g != added {
				t.Fatalf("iter %d: adding %s reshuffled key between old groups (%s → %s)",
					it, added, before[i], g)
			}
			moved++
		}
		idealMoved := float64(keysPerIt) / float64(n+1)
		if f := float64(moved); f < 0.5*idealMoved || f > 1.6*idealMoved {
			t.Fatalf("iter %d: adding 1 group to %d moved %d/%d keys, want ≈%.0f (1/N of the keyspace)",
				it, n, moved, keysPerIt, idealMoved)
		}

		// (b') Movement on remove: drop the added group again; exactly the
		// keys it owned move back, everything else stays put.
		r.Remove(added)
		for i, key := range keys {
			g, err := r.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if g != before[i] {
				t.Fatalf("iter %d: removing %s did not restore key to %s (got %s)",
					it, added, before[i], g)
			}
		}
	}
}

func TestRingBasics(t *testing.T) {
	r := New(0)
	if _, err := r.Get([]byte("anything")); err == nil {
		t.Fatal("empty ring served a key")
	}
	r.Add("a")
	r.Add("a") // idempotent
	if got := r.Groups(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("groups = %v, want [a]", got)
	}
	g, err := r.GetString("key")
	if err != nil || g != "a" {
		t.Fatalf("single-group ring routed to %q (%v), want a", g, err)
	}
	r.Add("b")
	if r.Size() != 2 {
		t.Fatalf("size = %d, want 2", r.Size())
	}
	r.Remove("missing") // no-op
	r.Remove("a")
	g, err = r.GetString("key")
	if err != nil || g != "b" {
		t.Fatalf("after removal routed to %q (%v), want b", g, err)
	}
}

// Routing must be stable under concurrent lookups and membership churn
// (the -race leg of the suite).
func TestRingConcurrentChurn(t *testing.T) {
	r := New(64)
	r.Add("stable")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.Add(fmt.Sprintf("churn%d", i%8))
			r.Remove(fmt.Sprintf("churn%d", (i+4)%8))
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := r.Get([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func BenchmarkRingGet(b *testing.B) {
	r := New(0)
	for g := 0; g < 4; g++ {
		r.Add(fmt.Sprintf("group%d", g))
	}
	key := make([]byte, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1] = byte(i), byte(i>>8)
		if _, err := r.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// Keep the arc-share measurement honest: shares must sum to 1.
func TestArcSharesSumToOne(t *testing.T) {
	r := New(0)
	for g := 0; g < 5; g++ {
		r.Add(fmt.Sprintf("g%d", g))
	}
	sum := 0.0
	for _, s := range arcShares(r) {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("arc shares sum to %f, want 1", sum)
	}
}

// sortedness is an invariant Get's binary search depends on.
func TestRingPointsStaySorted(t *testing.T) {
	r := New(32)
	for g := 0; g < 6; g++ {
		r.Add(fmt.Sprintf("g%d", g))
		r.mu.RLock()
		sorted := sort.SliceIsSorted(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
		r.mu.RUnlock()
		if !sorted {
			t.Fatalf("points unsorted after adding g%d", g)
		}
	}
}
