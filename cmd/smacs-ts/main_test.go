package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	replicanet "repro/internal/ts/replica/net"
)

// A file-backed counter must resume strictly above every index a previous
// incarnation issued — the CLI-level view of the store.Counter contract.
func TestOpenCounterFileResumesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := openCounter("file", dir, 4, 2, "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	issued := make(map[int64]bool)
	for i := 0; i < 3*counterBlockSize; i++ {
		idx, err := c1.counter.Next()
		if err != nil {
			t.Fatal(err)
		}
		issued[idx] = true
	}
	// Restart: the old handle is abandoned (no Close), like a crash.
	c2, err := openCounter("file", dir, 4, 2, "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*counterBlockSize; i++ {
		idx, err := c2.counter.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice across restart", idx)
		}
	}
}

func TestOpenCounterRejectsBadFlags(t *testing.T) {
	if _, err := openCounter("file", "", 0, 1, "", "", "", "", ""); err == nil {
		t.Error("file store without -dir accepted")
	}
	if _, err := openCounter("mem", "/tmp/x", 0, 1, "", "", "", "", ""); err == nil {
		t.Error("-dir without file store accepted")
	}
	if _, err := openCounter("mem", "", 8, 1, "", "", "", "", ""); err == nil {
		t.Error("-fsync-batch without file store accepted")
	}
	if _, err := openCounter("tape", "", 0, 1, "", "", "", "", ""); err == nil {
		t.Error("unknown store accepted")
	}
	if _, err := openCounter("file", "/tmp/x", 0, 1, "http://a,http://b,http://c", "", "", "", ""); err == nil {
		t.Error("-peers with a local file store accepted: durability would be claimed twice")
	}
	if _, err := openCounter("mem", "", 0, 1, "http://a,http://b", "", "", "", ""); err == nil {
		t.Error("even peer count accepted")
	}
	// -fsync-batch needs a journal: -store file, or -group-name with -dir.
	peers3, boot := "http://a,http://b,http://c", "g1=http://fe1.example"
	if _, err := openCounter("mem", "", 8, 1, peers3, "", "", "", ""); err == nil {
		t.Error("-fsync-batch on a plain -peers frontend accepted")
	}
	if _, err := openCounter("mem", "", 8, 1, peers3, "", "g1", boot, ""); err == nil {
		t.Error("-fsync-batch on a membership frontend without -dir accepted")
	}
	if cs, err := openCounter("mem", t.TempDir(), 8, 1, peers3, "", "g1", boot, ""); err != nil {
		t.Errorf("-fsync-batch on a journaled membership frontend rejected: %v", err)
	} else {
		_ = cs.close()
	}
}

// startReplicas serves three volatile counter replicas on loopback and
// returns their comma-separated base URLs, as -peers takes them.
func startReplicas(t *testing.T) string {
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
	return strings.Join(urls, ",")
}

// The three quorum frontend modes are one stack — coordinator, stripe,
// sharded counter — and keep the index maps they always had: a plain
// -peers frontend issues the quorum's blocks unchanged, -group i/n
// issues only blocks ≡ i+1 (mod n), and -group-name adds a membership
// manager. The cases run one after another on one replica group, so
// the quorum's block sequence simply continues from case to case.
func TestOpenCounterNetworkedStripedFrontends(t *testing.T) {
	peers := startReplicas(t)
	seen := make(map[int64]string)
	for _, tc := range []struct {
		name, group, groupName, initialGroups string
		shards                                int
	}{
		{name: "plain", shards: 1},
		{name: "0/2", group: "0/2", shards: 2},
		{name: "1/2", group: "1/2", shards: 2},
		{name: "g1", groupName: "g1", initialGroups: "g1=http://fe1.example,g2=http://fe2.example", shards: 2},
	} {
		c, err := openCounter("mem", "", 0, tc.shards, peers, tc.group, tc.groupName, tc.initialGroups, "")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (c.manager != nil) != (tc.groupName != "") {
			t.Fatalf("%s: membership manager built = %v", tc.name, c.manager != nil)
		}
		for i := int64(1); i <= 3*counterBlockSize; i++ {
			idx, err := c.counter.Next()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if tc.name == "plain" && idx != i {
				t.Fatalf("plain -peers issued %d as allocation %d, want the identity map", idx, i)
			}
			if tc.group != "" {
				index, count, _ := parseGroup(tc.group)
				if block := (idx-1)/counterBlockSize + 1; (block-1)%int64(count) != int64(index) {
					t.Fatalf("-group %s issued %d from block %d, outside its stripe", tc.group, idx, block)
				}
			}
			if other, dup := seen[idx]; dup {
				t.Fatalf("index %d issued by both frontend %s and %s", idx, other, tc.name)
			}
			seen[idx] = tc.name
		}
	}
}

// Bad observability/sizing flag combinations must be rejected before the
// daemon does any work (main exits 2 with usage on these).
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(":8546", "", 4, 0, "", "", "", "", ""); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	if err := validateFlags(":8546", "127.0.0.1:9100", 4, 16, "", "", "", "", ""); err != nil {
		t.Errorf("separate metrics listener rejected: %v", err)
	}
	if err := validateFlags(":8546", ":8546", 4, 0, "", "", "", "", ""); err == nil {
		t.Error("-metrics-addr colliding with -addr accepted")
	}
	if err := validateFlags(":8546", "", 0, 0, "", "", "", "", ""); err == nil {
		t.Error("-shards 0 accepted")
	}
	if err := validateFlags(":8546", "", 4, -1, "", "", "", "", ""); err == nil {
		t.Error("negative -fsync-batch accepted")
	}

	peers3 := "http://a:1,http://b:2,http://c:3"
	if err := validateFlags(":9001", "", 4, 0, "sale", "", "", "", ""); err != nil {
		t.Errorf("replica mode rejected: %v", err)
	}
	if err := validateFlags(":9001", "", 4, 0, "sale", peers3, "", "", ""); err == nil {
		t.Error("-replica-of combined with -peers accepted")
	}
	if err := validateFlags(":9001", "127.0.0.1:9100", 4, 0, "sale", "", "", "", ""); err == nil {
		t.Error("-metrics-addr in replica mode accepted")
	}
	if err := validateFlags(":8546", "", 4, 0, "", peers3, "1/2", "", ""); err != nil {
		t.Errorf("quorum frontend flags rejected: %v", err)
	}
	if err := validateFlags(":8546", "", 4, 0, "", "http://a:1,http://b:2", "", "", ""); err == nil {
		t.Error("even -peers count accepted")
	}
	if err := validateFlags(":8546", "", 4, 0, "", "", "0/2", "", ""); err == nil {
		t.Error("-group without -peers accepted")
	}
	for _, bad := range []string{"2/2", "-1/2", "0/0", "x/y", "1", "0/2/3", "0/2x", "1/2 junk"} {
		if err := validateFlags(":8546", "", 4, 0, "", peers3, bad, "", ""); err == nil {
			t.Errorf("-group %q accepted", bad)
		}
	}
}

// runReplica's store validation must fail before it ever binds a port.
func TestRunReplicaRejectsBadStores(t *testing.T) {
	if err := runReplica(":0", "g", "file", "", 0); err == nil {
		t.Error("file-backed replica without -dir accepted")
	}
	if err := runReplica(":0", "g", "mem", "/tmp/x", 0); err == nil {
		t.Error("-dir without file store accepted")
	}
	if err := runReplica(":0", "g", "tape", "", 0); err == nil {
		t.Error("unknown store accepted")
	}
}

// The dedicated metrics listener serves the default registry and only
// mounts pprof when asked.
func TestMetricsHandlerRoutes(t *testing.T) {
	for _, tc := range []struct {
		pprofOn    bool
		path       string
		wantStatus int
	}{
		{false, "/metrics", 200},
		{false, "/debug/pprof/cmdline", 404},
		{true, "/debug/pprof/cmdline", 200},
		{true, "/metrics", 200},
	} {
		rec := httptest.NewRecorder()
		metricsHandler(tc.pprofOn).ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.wantStatus {
			t.Errorf("pprof=%v GET %s = %d, want %d", tc.pprofOn, tc.path, rec.Code, tc.wantStatus)
		}
	}
}

// A clean shutdown must hand unexhausted block-lease remainders back to
// the WAL so the next incarnation re-issues them: across a release +
// restart the issued index set stays gap-free — no range is burned.
func TestOpenCounterCleanShutdownLeavesNoGap(t *testing.T) {
	dir := t.TempDir()
	cs1, err := openCounter("file", dir, 0, 2, "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	issued := make(map[int64]bool)
	for i := 0; i < 40; i++ {
		idx, err := cs1.counter.Next()
		if err != nil {
			t.Fatal(err)
		}
		issued[idx] = true
	}
	// Clean shutdown: remainders become journaled reclaim offers.
	if err := cs1.release(); err != nil {
		t.Fatal(err)
	}
	if err := cs1.close(); err != nil {
		t.Fatal(err)
	}

	cs2, err := openCounter("file", dir, 0, 2, "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cs2.sharded.Reclaimed() == 0 {
		t.Fatal("restarted counter adopted no released leases")
	}
	// 40 issued + the adopted remainders + fresh blocks must tile the
	// keyspace from 1 with no hole: every leased block is either fully
	// issued or re-offered, never abandoned.
	const total = 2 * counterBlockSize
	for i := 40; i < total; i++ {
		idx, err := cs2.counter.Next()
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

// A dynamic-membership frontend boots against live replicas, issues
// under its bootstrap view, and releases its remainders into the
// membership journal on shutdown, so a restart adopts them back.
func TestOpenCounterMembershipBootAndRelease(t *testing.T) {
	urls := startReplicas(t)
	dir := t.TempDir()
	boot := "g1=http://fe1.example,g2=http://fe2.example"
	cs1, err := openCounter("mem", dir, 0, 2, urls, "", "g1", boot, "tok")
	if err != nil {
		t.Fatal(err)
	}
	if cs1.manager == nil {
		t.Fatal("membership frontend built no manager")
	}
	if st := cs1.manager.State(); st.View.Epoch != 1 || len(st.View.Groups) != 2 {
		t.Fatalf("boot state = %+v, want epoch 1 with 2 groups", st)
	}
	issued := make(map[int64]bool)
	for i := 0; i < 10; i++ {
		idx, err := cs1.counter.Next()
		if err != nil {
			t.Fatal(err)
		}
		issued[idx] = true
	}
	if err := cs1.release(); err != nil {
		t.Fatal(err)
	}
	if err := cs1.close(); err != nil {
		t.Fatal(err)
	}

	cs2, err := openCounter("mem", dir, 0, 2, urls, "", "g1", boot, "tok")
	if err != nil {
		t.Fatal(err)
	}
	if cs2.sharded.Reclaimed() == 0 {
		t.Fatal("restarted membership frontend adopted no released leases")
	}
	for i := 0; i < 20; i++ {
		idx, err := cs2.counter.Next()
		if err != nil {
			t.Fatal(err)
		}
		if issued[idx] {
			t.Fatalf("index %d issued twice across membership restart", idx)
		}
		issued[idx] = true
	}
}

func TestValidateFlagsMembership(t *testing.T) {
	peers3 := "http://a:1,http://b:2,http://c:3"
	boot := "g1=http://a:8546,g2=http://b:8546"
	if err := validateFlags(":8546", "", 4, 0, "", peers3, "", "g1", boot); err != nil {
		t.Errorf("membership frontend flags rejected: %v", err)
	}
	if err := validateFlags(":8546", "", 4, 0, "", "", "", "g1", boot); err == nil {
		t.Error("-group-name without -peers accepted")
	}
	if err := validateFlags(":8546", "", 4, 0, "", peers3, "", "g1", ""); err == nil {
		t.Error("-group-name without -initial-groups accepted")
	}
	if err := validateFlags(":8546", "", 4, 0, "", peers3, "0/2", "g1", boot); err == nil {
		t.Error("-group and -group-name together accepted")
	}
	if err := validateFlags(":8546", "", 4, 0, "", peers3, "", "", boot); err == nil {
		t.Error("-initial-groups without -group-name accepted")
	}
	if err := validateFlags(":9001", "", 4, 0, "sale", "", "", "g1", boot); err == nil {
		t.Error("-group-name in replica mode accepted")
	}
	for _, bad := range []string{"g1", "g1=", "=http://x", "g1=http://a,g1=http://b", " , "} {
		if err := validateFlags(":8546", "", 4, 0, "", peers3, "", "g1", bad); err == nil {
			t.Errorf("-initial-groups %q accepted", bad)
		}
	}
	// Entry order must not matter: sorted views give identical slots.
	g1, _, err := parseInitialGroups("b=http://b,a=http://a")
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := parseInitialGroups("a=http://a,b=http://b")
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("group order depends on flag order: %v vs %v", g1, g2)
		}
	}
}
