package membership

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/nettest"
	"repro/internal/store"
	"repro/internal/ts"
	"repro/internal/ts/ring"
)

// seqCounter stands in for a group's quorum coordinator.
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

// frontend is one in-process Token Service frontend: stripe + sharded
// counter + manager + a real HTTP server for the member endpoints.
type frontend struct {
	group   string
	counter *ts.ShardedCounter
	manager *Manager
	server  *httptest.Server
}

func newFrontend(t *testing.T, group string, v ring.View, urls map[string]string, journal store.Backend, reg *metrics.Registry) *frontend {
	t.Helper()
	stripe, err := ring.NewDynamicStripe(&seqCounter{}, group, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := ts.NewShardedCounter(stripe, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{
		Group:    group,
		Stripe:   stripe,
		Counter:  counter,
		Journal:  journal,
		Registry: reg,
	}, v, urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &frontend{group: group, counter: counter, manager: mgr}
	f.server = httptest.NewServer(mgr.Handler())
	t.Cleanup(f.server.Close)
	return f
}

// gatedFrontend is newFrontend plus a per-path fault injector: member
// endpoints whose path is stored in the returned map answer 502, the
// stand-in for a frontend that is up but failing mid-change.
func gatedFrontend(t *testing.T, group string, v ring.View, urls map[string]string, reg *metrics.Registry, reclaims *store.Counter) (*frontend, *sync.Map) {
	t.Helper()
	stripe, err := ring.NewDynamicStripe(&seqCounter{}, group, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := ts.NewShardedCounter(stripe, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{
		Group:    group,
		Stripe:   stripe,
		Counter:  counter,
		Reclaims: reclaims,
		Registry: reg,
	}, v, urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &frontend{group: group, counter: counter, manager: mgr}
	var failing sync.Map
	h := mgr.Handler()
	f.server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, down := failing.Load(r.URL.Path); down {
			http.Error(w, "injected fault", http.StatusBadGateway)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(f.server.Close)
	return f, &failing
}

// patchURLs rewires a manager's frontend URL map after the test servers
// exist (URLs are needed at construction, before they are known).
func patchURLs(fs []*frontend, urls map[string]string) {
	for _, f := range fs {
		f.manager.mu.Lock()
		f.manager.urls = copyURLs(urls)
		f.manager.mu.Unlock()
	}
}

// TestJoinDrainLifecycle drives the full protocol over real HTTP member
// endpoints: two groups issue under load, a third joins mid-stream, then
// one drains and hands its unexhausted leases over. Every index across
// all groups and epochs must be unique, and the drained remainders must
// resurface through the successor instead of burning.
func TestJoinDrainLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	v1 := ring.View{Epoch: 1, Groups: []string{"a", "b"}}

	// Bootstrapping: URLs must be known before servers exist, so reserve
	// them via a two-phase setup — build a with placeholder, fix after.
	urls := map[string]string{}
	fa := newFrontend(t, "a", v1, map[string]string{"a": "pending", "b": "pending"}, store.NewMemory(), reg)
	fb := newFrontend(t, "b", v1, map[string]string{"a": "pending", "b": "pending"}, nil, reg)
	urls["a"], urls["b"] = fa.server.URL, fb.server.URL
	// Re-seed the managers' URL maps through a no-op advance is overkill
	// for a test: rebuild them with real URLs instead.
	fa.manager.mu.Lock()
	fa.manager.urls = copyURLs(urls)
	fa.manager.mu.Unlock()
	fb.manager.mu.Lock()
	fb.manager.urls = copyURLs(urls)
	fb.manager.mu.Unlock()

	seen := make(map[int64]string)
	issue := func(f *frontend, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			idx, err := f.counter.Next()
			if err != nil {
				t.Fatalf("%s: %v", f.group, err)
			}
			if prev, dup := seen[idx]; dup {
				t.Fatalf("index %d issued by both %s and %s", idx, prev, f.group)
			}
			seen[idx] = f.group
		}
	}

	issue(fa, 30)
	issue(fb, 17)

	// Group c joins via the admin op on frontend a. The joiner boots with
	// the cluster's current view (not containing itself).
	fc := newFrontend(t, "c", v1, urls, nil, reg)
	joinRes, err := fa.manager.Join("c", fc.server.URL)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := joinRes.View.Epoch; got != 2 {
		t.Fatalf("post-join epoch = %d, want 2", got)
	}
	if joinRes.View.Slot("c") < 0 {
		t.Fatal("joiner missing from adopted view")
	}
	if e := fb.manager.View().Epoch; e != 2 {
		t.Fatalf("member b not advanced: epoch %d", e)
	}
	if e := fc.manager.View().Epoch; e != 2 {
		t.Fatalf("joiner c not advanced: epoch %d", e)
	}

	issue(fa, 12)
	issue(fb, 25)
	issue(fc, 21)

	// Drain b from frontend c (any frontend can control a change). b has
	// unexhausted leases; they must move to the successor, not burn.
	drainRes, err := fc.manager.Drain("b")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := drainRes.View.Epoch; got != 3 {
		t.Fatalf("post-drain epoch = %d, want 3", got)
	}
	if drainRes.View.Slot("b") >= 0 {
		t.Fatal("drained group still in view")
	}
	if drainRes.LeasesMoved == 0 {
		t.Fatal("drain moved no leases despite unexhausted blocks")
	}
	// The heir is the group at the slot after b in [a b c].
	if drainRes.Successor != "c" {
		t.Fatalf("successor = %q, want c", drainRes.Successor)
	}
	if got := fc.counter.Reclaimed(); got != drainRes.LeasesMoved {
		t.Fatalf("successor reclaimed %d indexes, change reported %d", got, drainRes.LeasesMoved)
	}

	// The drained group refuses to issue; survivors keep going, reusing
	// the handed-over indexes first.
	if _, err := fb.counter.Next(); err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Fatalf("drained frontend issued an index (err=%v)", err)
	}
	issue(fa, 40)
	issue(fc, 40)

	// The handed-over remainders must resurface exactly once.
	reused := int64(0)
	for idx, g := range seen {
		_ = idx
		if g == drainRes.Successor {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("successor issued nothing after adopting leases")
	}

	// Membership epoch gauge tracks the latest adopted view.
	if got := reg.Gauge(ts.MetricMembershipEpoch, "").Value(); got != 3 {
		t.Fatalf("%s gauge = %d, want 3", ts.MetricMembershipEpoch, got)
	}

	// Persistence: frontend a journaled every adopted view; a restart
	// resumes from epoch 3 with the post-drain URL map.
	_, recs, err := fa.manager.cfg.Journal.Replay()
	if err != nil {
		t.Fatal(err)
	}
	st, ok, err := StateFromRecords(recs)
	if err != nil || !ok {
		t.Fatalf("StateFromRecords: ok=%v err=%v", ok, err)
	}
	if st.View.Epoch != 3 || st.View.Slot("b") >= 0 {
		t.Fatalf("persisted view = %+v, want epoch 3 without b", st.View)
	}
	if st.URLs["c"] != fc.server.URL {
		t.Fatalf("persisted URLs missing joiner: %+v", st.URLs)
	}
	if st.BaseK == 0 {
		t.Fatal("persisted baseK is 0 after two advances — epoch base not recorded")
	}
}

// TestAdvanceIdempotentPerEpoch pins the retry contract: re-advancing a
// member to the view it already adopted acks instead of failing, so an
// operator can re-run a change that died halfway.
func TestAdvanceIdempotentPerEpoch(t *testing.T) {
	v1 := ring.View{Epoch: 1, Groups: []string{"a"}}
	f := newFrontend(t, "a", v1, map[string]string{"a": "http://x"}, nil, metrics.NewRegistry())

	rem := &Remote{GroupName: "a", Base: f.server.URL}
	if _, err := rem.Freeze(); err != nil {
		t.Fatal(err)
	}
	v2 := ring.View{Epoch: 2, Groups: []string{"a"}, Watermark: 0}
	urls := map[string]string{"a": "http://x"}
	if err := rem.Advance(v2, urls); err != nil {
		t.Fatalf("first advance: %v", err)
	}
	if err := rem.Advance(v2, urls); err != nil {
		t.Fatalf("idempotent re-advance rejected: %v", err)
	}
	// A stale epoch is still rejected.
	if err := rem.Advance(v1, urls); err == nil {
		t.Fatal("stale advance accepted")
	}
	if err := rem.Resume(); err != nil {
		t.Fatal(err)
	}
	if v := f.manager.View(); v.Epoch != 2 {
		t.Fatalf("view after the advance = %+v, want epoch 2", v)
	}
}

// TestPartialAdvanceKeepsUnadvancedFrozen pins the fail-frozen policy:
// when an advance dies halfway, members already on the new epoch resume
// and serve while everyone else stays frozen (unavailable, never
// allocating on a stale epoch whose stride could collide), a retry from
// a stale member refuses to pick a watermark, and Repair from an
// advanced frontend converges the whole cluster on a fresh epoch.
func TestPartialAdvanceKeepsUnadvancedFrozen(t *testing.T) {
	reg := metrics.NewRegistry()
	v1 := ring.View{Epoch: 1, Groups: []string{"a", "b"}}
	pending := map[string]string{"a": "pending", "b": "pending"}
	fa, _ := gatedFrontend(t, "a", v1, pending, reg, nil)
	fb, failB := gatedFrontend(t, "b", v1, pending, reg, nil)
	fc, _ := gatedFrontend(t, "c", v1, pending, reg, nil)
	patchURLs([]*frontend{fa, fb, fc}, map[string]string{"a": fa.server.URL, "b": fb.server.URL})

	seen := make(map[int64]string)
	issue := func(f *frontend, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			idx, err := f.counter.Next()
			if err != nil {
				t.Fatalf("%s: %v", f.group, err)
			}
			if prev, dup := seen[idx]; dup {
				t.Fatalf("index %d issued by both %s and %s", idx, prev, f.group)
			}
			seen[idx] = f.group
		}
	}
	issue(fa, 9)
	issue(fb, 9)

	// The join advances a (the controller, in-process) first, then dies
	// at b. c is frozen but never advanced.
	failB.Store(PathAdvance, true)
	_, err := fa.manager.Join("c", fc.server.URL)
	if err == nil {
		t.Fatal("partial advance reported success")
	}
	if !strings.Contains(err.Error(), "stay frozen") || !strings.Contains(err.Error(), "b") {
		t.Fatalf("error does not name the kept-frozen groups: %v", err)
	}

	// The advanced controller serves on the new epoch; the unadvanced
	// members stay frozen instead of resuming onto the old one.
	if e := fa.manager.View().Epoch; e != 2 {
		t.Fatalf("controller epoch = %d, want 2", e)
	}
	issue(fa, 9)
	for _, f := range []*frontend{fb, fc} {
		info, err := (local{f.manager}).Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if !info.WasFrozen {
			t.Fatalf("%s was resumed despite not advancing", f.group)
		}
		if info.Epoch != 1 {
			t.Fatalf("%s epoch = %d, want 1", f.group, info.Epoch)
		}
	}

	// A retried join from the advanced controller refuses — its view
	// already contains the joiner; Repair is the recovery op.
	if _, err := fa.manager.Join("c", fc.server.URL); err == nil || !strings.Contains(err.Error(), "already a member") {
		t.Fatalf("retried join from advanced controller = %v", err)
	}

	// A retry from the stale member aborts before computing a watermark
	// (its view cannot cover the advanced member's allocations), naming
	// the member that is ahead — and leaves b frozen.
	failB.Delete(PathAdvance)
	if _, err := fb.manager.Join("c", fc.server.URL); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale-controller join = %v", err)
	}
	if info, err := (local{fb.manager}).Freeze(); err != nil || !info.WasFrozen {
		t.Fatalf("stale-controller abort resumed b: %+v, %v", info, err)
	}

	// Repair from the advanced frontend: everyone lands on a fresh epoch
	// above both the advanced and the stale members, and issuance stays
	// globally unique across the whole ordeal.
	res, err := fa.manager.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.View.Epoch != 3 || res.View.Slot("c") < 0 {
		t.Fatalf("repaired view = %+v, want epoch 3 containing c", res.View)
	}
	for _, f := range []*frontend{fa, fb, fc} {
		if e := f.manager.View().Epoch; e != 3 {
			t.Fatalf("%s epoch = %d after repair, want 3", f.group, e)
		}
	}
	issue(fa, 9)
	issue(fb, 9)
	issue(fc, 9)
}

// TestDrainHandoffJournalAndHeirFallback pins the durable lease
// handoff: the drained remainders are journaled (offer then consume)
// before the heir adopts, and when the heir's adopt fails the
// controller adopts them itself — the drain degrades to a different
// successor, never to burned indexes.
func TestDrainHandoffJournalAndHeirFallback(t *testing.T) {
	// The heir of b in [a b c] is c, the group at the next slot; gate
	// its adopt endpoint and drive the drain from the other survivor.
	heir, ctrl := "c", "a"

	reg := metrics.NewRegistry()
	v1 := ring.View{Epoch: 1, Groups: []string{"a", "b", "c"}}
	backend := store.NewMemory()
	reclaims, err := store.OpenCounter(backend, -1)
	if err != nil {
		t.Fatal(err)
	}
	pending := map[string]string{"a": "pending", "b": "pending", "c": "pending"}
	fs := map[string]*frontend{}
	gates := map[string]*sync.Map{}
	urls := map[string]string{}
	for _, g := range []string{"a", "b", "c"} {
		var rc *store.Counter
		if g == ctrl {
			rc = reclaims
		}
		fs[g], gates[g] = gatedFrontend(t, g, v1, pending, reg, rc)
		urls[g] = fs[g].server.URL
	}
	patchURLs([]*frontend{fs["a"], fs["b"], fs["c"]}, urls)

	// b issues so it holds unexhausted lease remainders to hand over.
	for i := 0; i < 5; i++ {
		if _, err := fs["b"].counter.Next(); err != nil {
			t.Fatal(err)
		}
	}

	gates[heir].Store(PathAdopt, true)
	res, err := fs[ctrl].manager.Drain("b")
	if err == nil || !strings.Contains(err.Error(), "adopted by") {
		t.Fatalf("drain with failing heir = %v, want the fallback-adoption error", err)
	}
	if res == nil || res.Successor != ctrl {
		t.Fatalf("fallback successor = %+v, want %s", res, ctrl)
	}
	if res.LeasesMoved == 0 {
		t.Fatal("drain moved no leases despite unexhausted blocks")
	}
	if got := fs[ctrl].counter.Reclaimed(); got != res.LeasesMoved {
		t.Fatalf("controller reclaimed %d indexes, drain reported %d", got, res.LeasesMoved)
	}

	// The handshake is journaled: every offer has a matching consume, so
	// a replay offers nothing — exactly one adopter, even across a crash.
	_, recs, err := backend.Replay()
	if err != nil {
		t.Fatal(err)
	}
	offers, adopts := 0, 0
	for _, rec := range recs {
		switch rec.Kind {
		case store.KindReclaim:
			offers++
		case store.KindAdopt:
			adopts++
		}
	}
	if offers == 0 || offers != adopts {
		t.Fatalf("journal holds %d offers and %d adopts, want matched and non-zero", offers, adopts)
	}
	restarted, err := store.OpenCounter(backend, -1)
	if err != nil {
		t.Fatal(err)
	}
	if left, err := restarted.PendingReclaims(); err != nil || len(left) != 0 {
		t.Fatalf("consumed offers re-offered after restart: %+v, %v", left, err)
	}

	// The fallback-adopted indexes resurface from the controller exactly
	// once.
	seen := map[int64]bool{}
	for i := int64(0); i < res.LeasesMoved+8; i++ {
		idx, err := fs[ctrl].counter.Next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[idx] {
			t.Fatalf("index %d issued twice by the fallback adopter", idx)
		}
		seen[idx] = true
	}
}

// TestChangeGuards covers the refusals: joining a present group,
// draining an absent one, draining the last group.
func TestChangeGuards(t *testing.T) {
	v1 := ring.View{Epoch: 1, Groups: []string{"a"}}
	f := newFrontend(t, "a", v1, map[string]string{"a": "http://x"}, nil, metrics.NewRegistry())
	if _, err := f.manager.Join("a", "http://y"); err == nil {
		t.Fatal("joined an existing member")
	}
	if _, err := f.manager.Drain("zz"); err == nil {
		t.Fatal("drained a non-member")
	}
	if _, err := f.manager.Drain("a"); err == nil {
		t.Fatal("drained the last group")
	}
	if _, err := f.manager.Join("", ""); err == nil {
		t.Fatal("empty join accepted")
	}
}

// A member whose reply never ends must cost the controller a prompt
// error at the reply cap, not an unbounded read until the call deadline.
func TestRemoteCapsEndlessReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(nettest.Endless))
	t.Cleanup(srv.Close)
	start := time.Now()
	_, err := (&Remote{GroupName: "x", Base: srv.URL}).Freeze()
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless reply: err = %v, want the reply cap", err)
	}
	if d := time.Since(start); d > DefaultMemberTimeout/2 {
		t.Fatalf("endless reply took %v to fail", d)
	}
}
