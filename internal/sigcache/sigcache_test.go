package sigcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetAddBasics(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache reported a hit")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d, %v", v, ok)
	}
	c.Add("a", 10) // refresh overwrites
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("refreshed Get(a) = %d, want 10", v)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits %d misses, want 2/1", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	c.Get("a")    // a is now most recent; b is oldest
	c.Add("d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %s evicted out of LRU order", k)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
}

func TestPurge(t *testing.T) {
	c := New[string, string](8)
	c.Add("a", "x")
	c.Get("a")
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("len after purge = %d", c.Len())
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("stats after purge = %d/%d", h, m)
	}
}

func TestKeyUniqueness(t *testing.T) {
	var d1, d2 [32]byte
	d2[31] = 1
	sig := make([]byte, 65)
	if Key(d1, sig) == Key(d2, sig) {
		t.Error("different digests share a key")
	}
	sig2 := make([]byte, 65)
	sig2[64] = 1
	if Key(d1, sig) == Key(d1, sig2) {
		t.Error("different signatures share a key")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				c.Add(k, i)
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("len = %d exceeds capacity", c.Len())
	}
}

// Building a signature key and looking it up allocate nothing.
func TestSigKeyAllocations(t *testing.T) {
	c := New[SigKey, int](4)
	var digest [32]byte
	sig := make([]byte, SigLength)
	c.Add(Key(digest, sig), 1)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(Key(digest, sig)); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Key + Get allocated %.0f times", n)
	}
}
