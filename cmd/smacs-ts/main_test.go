package main

import (
	"flag"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/doccheck"
)

// The counter flags map onto the stack config the deployment needs:
// plain -peers issues the quorum's blocks unchanged, and a -group-name
// frontend stripes under its bootstrap view and keeps its membership
// journal under dir/membership.
func TestCounterConfig(t *testing.T) {
	peers := "http://a:1,http://b:2,http://c:3"
	cfg, err := counterConfig("", peers, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Member != "" || cfg.URLs != nil || len(cfg.Peers) != 3 || cfg.Shards != runtime.GOMAXPROCS(0) {
		t.Errorf("-peers = %+v", cfg)
	}
	cfg, err = counterConfig("fe1", peers, "g2", "g2=http://b,g1=http://a", "tok")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Member != "g2" || !slices.Equal(cfg.View.Groups, []string{"g1", "g2"}) || cfg.URLs["g1"] != "http://a" ||
		cfg.Dir != filepath.Join("fe1", "membership") || cfg.OwnerToken != "tok" {
		t.Errorf("-group-name g2 -dir fe1 = %+v", cfg)
	}
	if cfg, _ := counterConfig("wal", "", "", "", ""); cfg.Dir != "wal" || cfg.Peers != nil || cfg.Member != "" {
		t.Errorf("-dir wal = %+v", cfg)
	}
}

// Bad observability and replication flag combinations must be rejected
// before the daemon does any work (main exits 2 with usage on these).
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(nil, ":8546", "", "", "", "", ""); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	if err := validateFlags([]string{"metrics-addr"}, ":8546", "127.0.0.1:9100", "", "", "", ""); err != nil {
		t.Errorf("separate metrics listener rejected: %v", err)
	}
	if err := validateFlags([]string{"metrics-addr"}, ":8546", ":8546", "", "", "", ""); err == nil {
		t.Error("-metrics-addr colliding with -addr accepted")
	}

	peers3 := "http://a:1,http://b:2,http://c:3"
	if err := validateFlags([]string{"replica-of", "addr", "dir"}, ":9001", "", "sale", "", "", ""); err != nil {
		t.Errorf("replica mode rejected: %v", err)
	}
	if err := validateFlags([]string{"peers"}, ":8546", "", "", peers3, "", ""); err != nil {
		t.Errorf("quorum frontend flags rejected: %v", err)
	}
	if err := validateFlags([]string{"peers"}, ":8546", "", "", "http://a:1,http://b:2", "", ""); err == nil {
		t.Error("even -peers count accepted")
	}
}

// A replica serves only the quorum protocol: every frontend flag given
// alongside -replica-of is rejected, not silently ignored. The table
// must cover every registered flag a replica does not read.
func TestValidateFlagsReplicaMode(t *testing.T) {
	frontendOnly := []string{
		"key-seed", "rules", "owner-token", "lifetime", "require-proof",
		"peers", "group-name", "initial-groups", "metrics-addr", "pprof",
	}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") && !slices.Contains(replicaFlags, f.Name) && !slices.Contains(frontendOnly, f.Name) {
			t.Errorf("flag -%s is missing from the frontend-only table", f.Name)
		}
	})
	for _, name := range frontendOnly {
		t.Run(name, func(t *testing.T) {
			set := []string{"replica-of", "addr", name, "dir"}
			if err := validateFlags(set, ":9001", "", "sale", "", "", ""); err == nil {
				t.Errorf("-replica-of with -%s accepted", name)
			}
		})
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

func TestValidateFlagsMembership(t *testing.T) {
	peers3 := "http://a:1,http://b:2,http://c:3"
	boot := "g1=http://a:8546,g2=http://b:8546"
	if err := validateFlags(nil, ":8546", "", "", peers3, "g1", boot); err != nil {
		t.Errorf("membership frontend flags rejected: %v", err)
	}
	if err := validateFlags(nil, ":8546", "", "", "", "g1", boot); err == nil {
		t.Error("-group-name without -peers accepted")
	}
	if err := validateFlags(nil, ":8546", "", "", peers3, "g1", ""); err == nil {
		t.Error("-group-name without -initial-groups accepted")
	}
	if err := validateFlags(nil, ":8546", "", "", peers3, "", boot); err == nil {
		t.Error("-initial-groups without -group-name accepted")
	}
	for _, bad := range []string{"g1", "g1=", "=http://x", "g1=http://a,g1=http://b", " , "} {
		if err := validateFlags(nil, ":8546", "", "", peers3, "g1", bad); err == nil {
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

// The docs, the CI workflow, the verify skill and this command's own
// package doc may only name flags smacs-ts registers: a deleted flag
// left in a document is a command the reader cannot run.
func TestDocsNameOnlyRealFlags(t *testing.T) {
	docs := map[string]string{}
	for _, path := range []string{
		"README.md",
		"docs/BENCHMARKS.md",
		".claude/skills/verify/SKILL.md",
		".github/workflows/ci.yml",
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = string(raw)
	}
	src, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	docs["cmd/smacs-ts/main.go"] = src.Doc.Text()
	for path, text := range docs {
		// docs/BENCHMARKS.md shows no smacs-ts command today; it is
		// scanned so that one added later is checked too.
		if len(doccheck.Invocations(text, "smacs-ts")) == 0 && path != "docs/BENCHMARKS.md" {
			t.Errorf("%s: no smacs-ts invocation found", path)
		}
		for _, err := range doccheck.Check(text, "smacs-ts", flag.CommandLine, nil) {
			t.Errorf("%s: %v", path, err)
		}
	}
}
