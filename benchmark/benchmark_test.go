package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
)

// Same seed, byte-identical inputs; another seed, other inputs; and the
// default seed's inputs are the ones expected.json pins.
func TestGeneratorIsDeterministic(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	a := newGen(exp.DefaultSeed, numWallets).digest(exp.InputsN)
	if b := newGen(exp.DefaultSeed, numWallets).digest(exp.InputsN); a != b {
		t.Fatalf("same seed gave digests %s and %s", a, b)
	}
	if c := newGen(exp.DefaultSeed+1, numWallets).digest(exp.InputsN); a == c {
		t.Fatalf("seeds %d and %d gave the same digest %s", exp.DefaultSeed, exp.DefaultSeed+1, a)
	}
	if a != exp.InputsDigest {
		t.Errorf("default seed digest %s, expected.json pins %s", a, exp.InputsDigest)
	}
	g := newGen(exp.DefaultSeed, numWallets)
	denied := 0
	for i := 0; i < exp.InputsN; i++ {
		if !allowed(g.rank(uint64(i))) {
			denied++
		}
	}
	if denied != exp.InputsDenied {
		t.Errorf("%d of the first %d draws are denied, expected.json pins %d", denied, exp.InputsN, exp.InputsDenied)
	}
}

// The whitelist has the 7,373 entries ISSUE 11 names.
func TestWhitelistSize(t *testing.T) {
	n := 0
	for r := 0; r < numWallets; r++ {
		if allowed(r) {
			n++
		}
	}
	if n != 7373 {
		t.Fatalf("whitelist has %d entries, want 7373", n)
	}
}

func TestPercentilesAreExactOrderStatistics(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		v    []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5}, {ten, 0.9, 9}, {ten, 0.99, 10}, {ten, 0.01, 1}, {ten, 1, 10},
		{[]float64{7}, 0.5, 7}, {[]float64{1, 100}, 0.5, 1}, {[]float64{1, 100}, 0.51, 100}, {nil, 0.5, 0},
	} {
		if got := percentile(c.v, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.v, c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %g, want 5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spreadShare(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread share = %g, want 1", got)
	}
}

func TestSelfTimeWithNestedAndOverlappingChildren(t *testing.T) {
	parents := []span{{kind: spHandler, id: -1, start: 0, end: 100}, {kind: spHandler, id: -1, start: 200, end: 260}}
	children := []span{
		{start: 10, end: 30}, {start: 15, end: 25}, // nested: covers 20
		{start: 50, end: 70}, {start: 60, end: 80}, // overlapping: covers 30
		{start: 90, end: 120},  // pokes out of every parent: nobody's child
		{start: 210, end: 220}, // second parent
	}
	got := selfTimes(parents, children, false)
	if got[0] != 50 || got[1] != 50 {
		t.Fatalf("self times %v, want [50 50]", got)
	}
	// Two parents in flight at once: a child goes to the tightest one that
	// contains it, or, by id, to the one that caused it.
	parents = []span{{id: 1, start: 0, end: 100}, {id: 2, start: 5, end: 90}}
	child := []span{{id: 1, start: 20, end: 40}}
	if got := assign(parents, child, false); got[0] != 1 {
		t.Errorf("by containment: parent %d, want the tighter span 1", got[0])
	}
	if got := assign(parents, child, true); got[0] != 0 {
		t.Errorf("by id: parent %d, want span 0", got[0])
	}
	if got := covered([]span{{start: 0, end: 10}, {start: 5, end: 30}}, 8, 20); got != 12 {
		t.Errorf("covered, clipped to [8,20] = %d, want 12", got)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01, m} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m * 0.9, m, m * 1.1, m * 1.3} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"unchanged", lower, tight(100), tight(100.5), "same"},
		{"slower", lower, tight(100), tight(115), "worse"},
		{"faster", lower, tight(100), tight(80), "better"},
		{"less throughput", higher, tight(100), tight(85), "worse"},
		{"more throughput", higher, tight(100), tight(120), "better"},
		{"noise wider than the bound", lower, noisy(100), noisy(104), "unresolved"},
		{"noisy but disjoint", lower, noisy(100), noisy(40), "better"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestBenchmarkJSONAgreesWithDriver(t *testing.T) {
	const root = ".." // tests run in the package directory
	b, err := loadBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(diffSpec(b), forbiddenImports(filepath.Join(root, "benchmark"))...) {
		t.Error(p)
	}
	b.EndToEnd[0].Unit = "furlongs"
	b.Workloads = b.Workloads[1:]
	if len(diffSpec(b)) < 2 {
		t.Error("a changed unit and a missing workload went unnoticed")
	}
}

// One corrupted byte in a copy of the token check's input must fail it.
func TestCorruptedTokenFailsTheCheck(t *testing.T) {
	key := secp256k1.PrivateKeyFromSeed([]byte("check test ts"))
	svc, err := ts.New(ts.Config{Key: key, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var tokens []issuedToken
	for i := 0; i < 8; i++ {
		req := &core.Request{Type: core.MethodType, Contract: types.Address{0xc0}, Sender: types.Address{0x51, byte(i)},
			Method: "put(uint256)", OneTime: true}
		tk, err := svc.Issue(req)
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, issuedToken{req: req, raw: tk.Encode()})
	}
	if err := checkTokens(tokens, key.Address(), true); err != nil {
		t.Fatalf("clean input: %v", err)
	}
	for _, at := range []int{0, 3, 20, 40, 85} { // type, expiry, index, signature r, recovery id
		bad := append([]issuedToken(nil), tokens...)
		raw := append([]byte(nil), bad[5].raw...)
		raw[at] ^= 0x01
		bad[5].raw = raw
		if err := checkTokens(bad, key.Address(), true); err == nil {
			t.Errorf("byte %d of a token corrupted, check still passed", at)
		}
	}
	dup := append(append([]issuedToken(nil), tokens...), tokens[2])
	if err := checkTokens(dup, key.Address(), true); err == nil {
		t.Error("a one-time index issued twice went unnoticed")
	}
}

// The open loop keeps offering ops on schedule while the system under test
// stalls: the ops due during the stall are timed from their intended start,
// the generator itself does not run late, and the backlog shows the stall.
func TestOpenLoopDoesNotOmitTheStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var stalled atomic.Bool
	var stallOnce sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			stallOnce.Do(func() {
				stalled.Store(true)
				time.Sleep(stall)
			})
		}
	}))
	defer srv.Close()

	// 1 ms apart for 600 ms; op 100 triggers the stall, and the single
	// worker is stuck in it for the 200 ops that fall due meanwhile.
	var ops []*openOp
	for i := 0; i < 600; i++ {
		ops = append(ops, &openOp{i: uint64(i), due: int64(i) * int64(time.Millisecond), measured: true})
	}
	rc := &runCtx{workers: 1, m: &meter{}}
	ow := &openWorkload{}
	ow.cond = sync.NewCond(&ow.mu)
	ow.loop(rc, ops, func(rc *runCtx, w int, op *openOp, now func() int64) {
		op.pickup = now()
		path := "/ok"
		if op.i == 100 {
			path = "/stall"
		}
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			op.failed = err.Error()
		} else {
			resp.Body.Close()
		}
		op.tokenDone = now()
		ow.finish(rc, op)
	})
	if !stalled.Load() {
		t.Fatal("the stub never stalled")
	}
	var lateness, latency []float64
	for _, op := range ops {
		if op.failed != "" {
			t.Fatalf("op %d: %s", op.i, op.failed)
		}
		lateness = append(lateness, float64(op.sent-op.due)/1e6)
		latency = append(latency, float64(op.tokenDone-op.due)/1e6)
	}
	// Op 200 fell due halfway through the stall: a closed loop would have
	// sent it after the stall and timed ~0 ms; from its intended start it
	// waited out the other half, behind the 100 ops queued before it.
	if latency[200] < 90 {
		t.Errorf("op due mid-stall timed at %.1f ms: not measured from its intended start", latency[200])
	}
	if l := percentile(sortedCopy(lateness), 0.99); l > 20 {
		t.Errorf("lateness p99 %.1f ms: the generator waited for the system", l)
	}
	if b := max(rc.backlogMax[0], rc.backlogMax[1]); b < 150 {
		t.Errorf("backlog max %d: the stall of ~200 arrivals is not visible", b)
	}
	if got := rc.m.ops.Load(); got != int64(len(ops)) {
		t.Errorf("%d ops completed, want %d", got, len(ops))
	}
}

// Every workload runs end to end at smoke size, untraced and traced, through
// the same code path as a full run; the numbers are printed, not compared.
func TestSmokeRunOfEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if !trace && w.Name != "issue-http" && w.Name != "guarded-open" {
				continue // the traced run covers the same path; keep tier-1 time
			}
			dir := t.TempDir()
			res, err := runOne(options{workload: w.Name, seed: defaultSeed, seconds: 1, smoke: true,
				trace: trace, dir: dir, keep: trace})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %+v", w.Name, m.Name, v)
				}
			}
			if !trace {
				for _, m := range declared(endToEnd) {
					if v := res.Metrics[m.Name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g", w.Name, m.Name, v)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
				t.Errorf("%s: no trace written: %v", w.Name, err)
			}
			checkLayerShape(t, w.Name, res)
			t.Logf("%s: %d per-layer metrics, %d bypassed", w.Name, len(res.Layers), len(res.Bypassed))
		}
	}
}

// checkLayerShape is the evidence that each workload stresses what its row
// says: bypassed layers report nothing, exercised ones do.
func checkLayerShape(t *testing.T, name string, res *runResult) {
	has := func(metric string) bool { _, ok := res.Layers[metric]; return ok }
	chain := name == "exec-disjoint" || name == "exec-hot" || name == "guarded-open"
	if has("evm.block_ms") != chain || has("core.token_cache_hit_share") != chain {
		t.Errorf("%s: evm metrics present=%v, want %v", name, has("evm.block_ms"), chain)
	}
	if has("replica.round_us") != (name == "issue-quorum") {
		t.Errorf("%s: replica metrics present=%v", name, has("replica.round_us"))
	}
	if has("tshttp.roundtrip_us") == (name == "exec-disjoint" || name == "exec-hot") {
		t.Errorf("%s: tshttp metrics present=%v", name, has("tshttp.roundtrip_us"))
	}
	switch name {
	case "exec-disjoint":
		if res.Layers["evm.reexec_per_tx"] > 0.05 {
			t.Errorf("exec-disjoint re-executed %.3f per tx, want ~0", res.Layers["evm.reexec_per_tx"])
		}
	case "exec-hot":
		if res.Layers["evm.reexec_per_tx"] <= 0 || res.Layers["core.token_cache_hit_share"] != 0 {
			t.Errorf("exec-hot: reexec %.3f (want > 0), token cache hit share %.3f (want 0)",
				res.Layers["evm.reexec_per_tx"], res.Layers["core.token_cache_hit_share"])
		}
	case "issue-quorum":
		if got := res.Layers["replica.rounds_per_token"]; math.Abs(got-1.0/leaseBlock) > 0.01 {
			t.Errorf("issue-quorum: %.4f quorum rounds per token, want ~1/%d", got, leaseBlock)
		}
	}
}

// Slice rates, the sliver rule and the traced/untraced pairing on a meter
// filled by hand: traced slices complete 90 ops, untraced ones 100.
func TestMeterSlicesAndTraceOverhead(t *testing.T) {
	m := &meter{}
	at := time.Unix(0, 0)
	add := func(d time.Duration, ops int64, traced bool) {
		at = at.Add(d)
		var last sample
		if n := len(m.samples); n > 0 {
			last = m.samples[n-1]
		}
		// The flag of a sample describes the slice that starts at it.
		m.samples = append(m.samples, sample{at: at, ops: last.ops + ops, cpu: last.cpu + time.Duration(ops)*time.Millisecond,
			mallocs: last.mallocs + uint64(ops)*7, traced: traced})
	}
	add(0, 0, true)
	for pair := 0; pair < 4; pair++ {
		add(500*time.Millisecond, 90, false) // closes a traced slice
		add(500*time.Millisecond, 100, true) // closes an untraced slice
	}
	add(3*time.Millisecond, 50, false) // a sliver with an absurd rate
	on, off := m.ratesOf(true), m.ratesOf(false)
	if len(on.sliceOps) != 4 || len(off.sliceOps) != 4 {
		t.Fatalf("%d traced and %d untraced slices kept, want 4 and 4", len(on.sliceOps), len(off.sliceOps))
	}
	if on.opsPerS != 180 || off.opsPerS != 200 || off.cpuMsPerOp != 1 || off.allocsPerOp != 7 {
		t.Errorf("rates: traced %g ops/s, untraced %g ops/s, %g cpu ms/op, %g allocs/op", on.opsPerS, off.opsPerS, off.cpuMsPerOp, off.allocsPerOp)
	}
	if share, ok := m.traceOverhead(false); !ok || math.Abs(share-0.1) > 1e-9 {
		t.Errorf("trace overhead %g (ok=%v), want 0.1", share, ok)
	}
}
