package stack

import (
	"testing"

	replicanet "repro/internal/ts/replica/net"
	"repro/internal/ts/ring"
)

const block = 64

// startReplicas serves three volatile counter replicas on loopback and
// returns their base URLs.
func startReplicas(t *testing.T) []string {
	t.Helper()
	urls := make([]string, 3)
	for i := range urls {
		srv, err := replicanet.Serve(replicanet.NewNode(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		urls[i] = srv.URL()
	}
	return urls
}

func open(t *testing.T, cfg Config) *Counter {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A file-backed counter must resume strictly above every index a previous
// incarnation issued, even one abandoned without Close, like a crash.
func TestFileCounterResumesAcrossRestart(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Shards: 2, Block: block}
	c1 := open(t, cfg)
	issued := make(map[int64]bool)
	for i := 0; i < 3*block; i++ {
		idx, err := c1.Next()
		if err != nil {
			t.Fatal(err)
		}
		issued[idx] = true
	}
	c2 := open(t, cfg)
	defer c2.Close(false)
	for i := 0; i < 3*block; i++ {
		idx, err := c2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice across restart", idx)
		}
	}
}

// A clean shutdown hands unexhausted block-lease remainders back to the
// WAL so the next incarnation re-issues them: across Close(true) and a
// reopen the issued index set stays gap-free, no range is burned.
func TestCleanShutdownLeavesNoGap(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Shards: 2, Block: block}
	c1 := open(t, cfg)
	issued := make(map[int64]bool)
	for i := 0; i < 40; i++ {
		idx, err := c1.Next()
		if err != nil {
			t.Fatal(err)
		}
		issued[idx] = true
	}
	if err := c1.Close(true); err != nil {
		t.Fatal(err)
	}

	c2 := open(t, cfg)
	defer c2.Close(false)
	if c2.Reclaimed() == 0 {
		t.Fatal("reopened counter adopted no released leases")
	}
	// 40 issued + the adopted remainders + fresh blocks must tile the
	// keyspace from 1 with no hole: every leased block is either fully
	// issued or re-offered, never abandoned.
	const total = 2 * block
	for i := 40; i < total; i++ {
		idx, err := c2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice across clean restart", idx)
		}
		issued[idx] = true
	}
	for i := int64(1); i <= total; i++ {
		if !issued[i] {
			t.Fatalf("index %d burned: clean shutdown left a gap in 1..%d", i, total)
		}
	}
}

// The quorum stacks keep their index maps: without a Member the quorum's
// blocks are issued unchanged, Member i of n issues only blocks ≡ i+1
// (mod n), and URLs add a membership manager. The cases run one after
// another on one replica group, so the quorum's block sequence simply
// continues from case to case.
func TestQuorumStripes(t *testing.T) {
	peers := startReplicas(t)
	halves := ring.View{Epoch: 1, Groups: []string{"0", "1"}}
	seen := make(map[int64]string)
	for _, tc := range []struct {
		name   string
		cfg    Config
		stripe int // slot of 2, or -1 for no stripe check
	}{
		{"plain", Config{Shards: 1}, -1},
		{"0/2", Config{Shards: 2, Member: "0", View: halves}, 0},
		{"1/2", Config{Shards: 2, Member: "1", View: halves}, 1},
		{"g1", Config{Shards: 2, Member: "g1", View: ring.View{Epoch: 1, Groups: []string{"g1", "g2"}},
			URLs: map[string]string{"g1": "http://fe1.example", "g2": "http://fe2.example"}}, -1},
	} {
		tc.cfg.Peers, tc.cfg.Block = peers, block
		c := open(t, tc.cfg)
		if (c.Manager != nil) != (tc.cfg.URLs != nil) {
			t.Fatalf("%s: membership manager built = %v", tc.name, c.Manager != nil)
		}
		for i := int64(1); i <= 3*block; i++ {
			idx, err := c.Next()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if tc.name == "plain" && idx != i {
				t.Fatalf("plain quorum issued %d as allocation %d, want the identity map", idx, i)
			}
			if b := (idx-1)/block + 1; tc.stripe >= 0 && (b-1)%2 != int64(tc.stripe) {
				t.Fatalf("member %s issued %d from block %d, outside its stripe", tc.cfg.Member, idx, b)
			}
			if other, dup := seen[idx]; dup {
				t.Fatalf("index %d issued by both %s and %s", idx, other, tc.name)
			}
			seen[idx] = tc.name
		}
	}
}

// A membership stack boots against live replicas under its bootstrap
// view, releases its remainders into the membership journal on a clean
// Close, and adopts them back when it is reopened on the same Dir.
func TestMembershipBootReleaseReadopt(t *testing.T) {
	cfg := Config{
		Dir: t.TempDir(), Shards: 2, Block: block, Peers: startReplicas(t),
		Member: "g1", View: ring.View{Epoch: 1, Groups: []string{"g1", "g2"}},
		URLs:       map[string]string{"g1": "http://fe1.example", "g2": "http://fe2.example"},
		OwnerToken: "tok",
	}
	c1 := open(t, cfg)
	if st := c1.Manager.State(); st.View.Epoch != 1 || len(st.View.Groups) != 2 {
		t.Fatalf("boot state = %+v, want epoch 1 with 2 groups", st)
	}
	issued := make(map[int64]bool)
	for i := 0; i < 10; i++ {
		idx, err := c1.Next()
		if err != nil {
			t.Fatal(err)
		}
		issued[idx] = true
	}
	if err := c1.Close(true); err != nil {
		t.Fatal(err)
	}

	c2 := open(t, cfg)
	defer c2.Close(false)
	if c2.Reclaimed() == 0 {
		t.Fatal("reopened membership stack adopted no released leases")
	}
	for i := 0; i < 20; i++ {
		idx, err := c2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice across membership restart", idx)
		}
		issued[idx] = true
	}
}

func TestOpenRejectsBadCombinations(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	view := ring.View{Epoch: 1, Groups: []string{"g1"}}
	urls := map[string]string{"g1": "http://fe1.example"}
	for name, cfg := range map[string]Config{
		"dir with peers but no membership": {Dir: t.TempDir(), Peers: peers},
		"even peer count":                  {Peers: peers[:2]},
		"stripe without peers":             {Member: "g1", View: view},
		"membership without peers":         {Member: "g1", View: view, URLs: urls},
		"membership without member":        {Peers: peers, View: view, URLs: urls},
		"stripe without a view":            {Peers: peers, Member: "g1"},
	} {
		cfg.Shards, cfg.Block = 1, block
		if c, err := Open(cfg); err == nil {
			_ = c.Close(false)
			t.Errorf("%s: accepted", name)
		}
	}
}
