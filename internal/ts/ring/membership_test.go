package ring

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// seqCounter is a plain in-process counter standing in for a quorum
// coordinator in DynamicStripe tests.
type seqCounter struct {
	mu sync.Mutex
	n  int64
}

func (c *seqCounter) Next() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n, nil
}

func TestViewValidate(t *testing.T) {
	good := View{Epoch: 1, Groups: []string{"a", "b"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	bad := []View{
		{Epoch: 0, Groups: []string{"a"}},
		{Epoch: 1, Groups: nil},
		{Epoch: 1, Groups: []string{"a", "a"}},
		{Epoch: 1, Groups: []string{""}},
		{Epoch: 1, Groups: []string{"a"}, Watermark: -1},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad view %d accepted: %+v", i, v)
		}
	}
	if got := good.Slot("b"); got != 1 {
		t.Fatalf("Slot(b) = %d, want 1", got)
	}
	if got := good.Slot("zz"); got != -1 {
		t.Fatalf("Slot(zz) = %d, want -1", got)
	}
}

// fixedView is the one-epoch view of n groups "0"…"n-1": a membership
// view before its first join or drain.
func fixedView(n int) View {
	v := View{Epoch: 1}
	for i := 0; i < n; i++ {
		v.Groups = append(v.Groups, fmt.Sprint(i))
	}
	return v
}

// Striping must partition the index space: under a fixed view, slot i
// of N maps its k-th allocation to exactly (k-1)*N + i + 1, so it only
// produces indexes ≡ i+1 (mod N), collision-free across slots, each
// slot's sequence strictly increasing.
func TestStripePartitionsIndexSpace(t *testing.T) {
	const groups, perGroup = 4, 1000
	v := fixedView(groups)
	seen := make(map[int64]int, groups*perGroup)
	for g := 0; g < groups; g++ {
		st, err := NewDynamicStripe(&seqCounter{}, v.Groups[g], v, 0)
		if err != nil {
			t.Fatal(err)
		}
		last := int64(0)
		for k := int64(1); k <= perGroup; k++ {
			idx, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if want := (k-1)*groups + int64(g) + 1; idx != want {
				t.Fatalf("slot %d allocation %d mapped to %d, want %d", g, k, idx, want)
			}
			if idx <= last {
				t.Fatalf("slot %d: index %d not increasing after %d", g, idx, last)
			}
			last = idx
			if (idx-1)%groups != int64(g) {
				t.Fatalf("slot %d produced index %d outside its stripe", g, idx)
			}
			if prev, dup := seen[idx]; dup {
				t.Fatalf("index %d issued by both slot %d and slot %d", idx, prev, g)
			}
			seen[idx] = g
		}
	}
}

func TestStripeValidation(t *testing.T) {
	v := fixedView(3)
	if _, err := NewDynamicStripe(nil, "0", v, 0); err == nil {
		t.Error("nil underlying accepted")
	}
	if _, err := NewDynamicStripe(&seqCounter{}, "", v, 0); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewDynamicStripe(&seqCounter{}, "0", View{Epoch: 1}, 0); err == nil {
		t.Error("view without groups accepted")
	}
	if _, err := NewDynamicStripe(&seqCounter{}, "0", v, -1); err == nil {
		t.Error("negative base accepted")
	}
	// A group outside the view builds (a joiner boots that way) but
	// must not issue.
	st, err := NewDynamicStripe(&seqCounter{}, "3", v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member Next = %v, want ErrNotMember", err)
	}
}

// TestDynamicStripeUniquenessAcrossViews drives three groups through a
// join and a drain while allocating concurrently, and asserts every
// global block id is issued exactly once — the core safety property of
// the epoch/watermark scheme.
func TestDynamicStripeUniquenessAcrossViews(t *testing.T) {
	// One shared "global" view transition sequence, separate underlying
	// counters per group (as in production: one quorum per group).
	v1 := View{Epoch: 1, Groups: []string{"a", "b"}}
	counters := map[string]*seqCounter{"a": {}, "b": {}, "c": {}}
	stripes := map[string]*DynamicStripe{}
	for _, g := range []string{"a", "b"} {
		s, err := NewDynamicStripe(counters[g], g, v1, 0)
		if err != nil {
			t.Fatal(err)
		}
		stripes[g] = s
	}

	seen := make(map[int64]string)
	take := func(g string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			got, err := stripes[g].Next()
			if err != nil {
				t.Fatalf("group %s Next: %v", g, err)
			}
			if prev, dup := seen[got]; dup {
				t.Fatalf("block %d issued to both %s and %s", got, prev, g)
			}
			seen[got] = g
		}
	}

	take("a", 7)
	take("b", 3)

	// c joins: freeze members, compute watermark, advance everyone.
	w := v1.Watermark
	for _, g := range []string{"a", "b"} {
		h, _, err := stripes[g].Freeze()
		if err != nil {
			t.Fatalf("freeze %s: %v", g, err)
		}
		if h > w {
			w = h
		}
	}
	v2 := View{Epoch: 2, Groups: []string{"a", "b", "c"}, Watermark: w}
	sc, err := NewDynamicStripe(counters["c"], "c", v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Freeze(); err != nil {
		t.Fatal(err)
	}
	stripes["c"] = sc
	for _, g := range []string{"a", "b", "c"} {
		if _, err := stripes[g].Advance(v2); err != nil {
			t.Fatalf("advance %s: %v", g, err)
		}
		stripes[g].Resume()
	}
	// c was built against v1 where it holds no slot; before its first
	// epoch it must refuse to serve.
	if sc.slot < 0 {
		t.Fatalf("c did not gain a slot in v2")
	}

	take("a", 5)
	take("b", 9)
	take("c", 6)

	// b drains.
	w = v2.Watermark
	for _, g := range []string{"a", "b", "c"} {
		h, _, err := stripes[g].Freeze()
		if err != nil {
			t.Fatalf("freeze %s: %v", g, err)
		}
		if h > w {
			w = h
		}
	}
	v3 := View{Epoch: 3, Groups: []string{"a", "c"}, Watermark: w}
	for _, g := range []string{"a", "b", "c"} {
		if _, err := stripes[g].Advance(v3); err != nil {
			t.Fatalf("advance %s: %v", g, err)
		}
		stripes[g].Resume()
	}

	take("a", 4)
	take("c", 4)
	if _, err := stripes["b"].Next(); !errors.Is(err, ErrNotMember) {
		t.Fatalf("drained group Next = %v, want ErrNotMember", err)
	}

	// Epoch regions must not overlap: every post-join block is above the
	// v2 watermark, which is above every v1 block.
	if len(seen) != 7+3+5+9+6+4+4 {
		t.Fatalf("issued %d unique blocks, want %d", len(seen), 38)
	}
}

// TestDynamicStripeRestartFromPersistedBase simulates a durable frontend
// restart: a second stripe built from the persisted (view, baseK) pair
// over the same underlying counter must not re-issue old blocks.
func TestDynamicStripeRestartFromPersistedBase(t *testing.T) {
	under := &seqCounter{}
	v := View{Epoch: 2, Groups: []string{"a", "b"}, Watermark: 100}
	s1, err := NewDynamicStripe(under, "a", View{Epoch: 1, Groups: []string{"a"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Freeze(); err != nil {
		t.Fatal(err)
	}
	base, err := s1.Advance(v)
	if err != nil {
		t.Fatal(err)
	}
	s1.Resume()
	first := make(map[int64]bool)
	for i := 0; i < 10; i++ {
		got, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		first[got] = true
	}

	// "Restart": new stripe, same counter, persisted view + base.
	s2, err := NewDynamicStripe(under, "a", v, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := s2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if first[got] {
			t.Fatalf("restarted stripe re-issued block %d", got)
		}
		if got <= v.Watermark {
			t.Fatalf("block %d at or below watermark %d", got, v.Watermark)
		}
	}
}

// frontierCounter is a seqCounter that also exposes its durable
// frontier, as the quorum coordinator does.
type frontierCounter struct{ seqCounter }

func (c *frontierCounter) Frontier() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, nil
}

// TestDynamicStripeFreezeSurvivesRestart pins the restart hole the
// durable-frontier derivation closes: a stripe rebuilt from persisted
// (view, baseK) state has an empty in-memory frontier, but Freeze must
// still report a value covering every block the previous incarnation
// issued — otherwise the next membership change computes a watermark
// below issued blocks and re-maps them.
func TestDynamicStripeFreezeSurvivesRestart(t *testing.T) {
	under := &frontierCounter{}
	v := View{Epoch: 1, Groups: []string{"a", "b"}}
	s1, err := NewDynamicStripe(under, "a", v, 0)
	if err != nil {
		t.Fatal(err)
	}
	var issued int64
	for i := 0; i < 9; i++ {
		got, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got > issued {
			issued = got
		}
	}
	h1, _, err := s1.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != issued {
		t.Fatalf("pre-restart frontier %d, want %d", h1, issued)
	}
	s1.Resume()

	// "Restart": same underlying counter, persisted view + base (0 —
	// the boot view was never re-adopted), no in-memory history.
	s2, err := NewDynamicStripe(under, "a", v, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, wasFrozen, err := s2.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if wasFrozen {
		t.Fatal("fresh stripe reported wasFrozen")
	}
	if h2 < issued {
		t.Fatalf("post-restart frontier %d below issued block %d", h2, issued)
	}

	// A second freeze reports the prior one.
	if _, again, err := s2.Freeze(); err != nil || !again {
		t.Fatalf("re-freeze = (wasFrozen %v, err %v), want (true, nil)", again, err)
	}
}

// TestDynamicStripeFreezeDrainsInflight pins the race the freeze
// protocol exists for: an allocation already past the frozen check must
// be reflected in the frontier Freeze returns.
func TestDynamicStripeFreezeDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	slow := counterFunc(func() (int64, error) {
		<-release
		return 1, nil
	})
	s, err := NewDynamicStripe(slow, "a", View{Epoch: 1, Groups: []string{"a"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int64, 1)
	go func() {
		n, err := s.Next()
		if err != nil {
			t.Error(err)
		}
		got <- n
	}()
	// Wait for the goroutine to be in flight, then freeze concurrently.
	for {
		s.mu.Lock()
		in := s.inflight
		s.mu.Unlock()
		if in == 1 {
			break
		}
	}
	frontier := make(chan int64, 1)
	go func() {
		h, _, err := s.Freeze()
		if err != nil {
			t.Error(err)
		}
		frontier <- h
	}()
	close(release)
	n := <-got
	if f := <-frontier; f < n {
		t.Fatalf("Freeze returned frontier %d below in-flight block %d", f, n)
	}
}

type counterFunc func() (int64, error)

func (f counterFunc) Next() (int64, error) { return f() }
