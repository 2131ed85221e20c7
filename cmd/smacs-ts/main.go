// Command smacs-ts runs a SMACS Token Service with its HTTP front end
// (Fig. 1): clients POST token requests to /v1/token; the owner manages
// Access Control Rules on /v1/rules with a bearer secret.
//
// Usage:
//
//	smacs-ts -addr :8546 -key-seed my-service -rules rules.json \
//	         -owner-token s3cret -lifetime 1h
//
// With -dir the one-time index counter survives restarts: every leased
// index block is journaled to a group-commit WAL under -dir before any
// index from it is handed out, and a restarted service resumes strictly
// above its highest durable lease — no index is ever issued twice across
// a crash (see internal/store):
//
//	smacs-ts -dir /var/lib/smacs-ts
//
// Distributed deployment: the counter can be replicated across
// processes. Replicas serve the lease-based quorum protocol
// (internal/ts/replica/net); frontends allocate index blocks through a
// majority of them, so any single replica can crash, partition, or lag
// without stopping issuance — and a majority's WALs are enough to
// recover, never re-issuing an index. The counter stack every frontend
// runs is built by internal/ts/stack:
//
//	smacs-ts -replica-of sale -addr :9001 -dir /var/lib/r1
//	smacs-ts -replica-of sale -addr :9002 -dir /var/lib/r2
//	smacs-ts -replica-of sale -addr :9003 -dir /var/lib/r3
//	smacs-ts -addr :8546 -peers http://h1:9001,http://h2:9002,http://h3:9003
//
// Several frontends can share one quorum without coordinating: the
// quorum grants every coordinator distinct blocks, so plain -peers
// frontends issue disjoint indexes and together advance the index
// frontier only as fast as they issue (clients pick a frontend
// themselves):
//
//	smacs-ts -addr :8546 -peers ...
//	smacs-ts -addr :8547 -peers ...
//
// Frontends on distinct quorums stripe the index space under dynamic
// membership: named replica groups under an epoch-numbered view (see
// internal/ts/ring). Each frontend names its group and the bootstrap
// membership; an operator then drives joins and drains through the
// owner-guarded admin endpoints (POST /v1/admin/{join,drain}) on any
// live frontend, and every member adopts the new view without ever
// issuing a duplicate one-time index (see internal/ts/membership).
// Without -owner-token the boot view never changes: a fixed multi-quorum
// deployment. With -dir the adopted views and released block leases are
// journaled under dir/membership, so a restarted frontend resumes its
// last view instead of its boot view:
//
//	smacs-ts -addr :8546 -peers ... -group-name g1 \
//	         -initial-groups g1=http://h1:8546,g2=http://h2:8546 -dir /var/lib/fe1
//
// On SIGTERM the daemon drains in-flight requests and releases its
// unexhausted block leases (journaled with -dir), so a clean restart
// re-issues the remainders instead of burning them.
//
// Observability: GET /metrics on the main listener renders the process
// registry (issuance counters, HTTP latency histograms, WAL series) in
// Prometheus text format. -metrics-addr moves the scrape endpoint to a
// separate, typically private, listener; -pprof additionally mounts
// /debug/pprof/* there (or on the main listener without -metrics-addr):
//
//	smacs-ts -addr :8546 -metrics-addr 127.0.0.1:9100 -pprof
//
// The rules file uses the Fig. 6 layout, e.g.:
//
//	{
//	  "sender":   {"whitelist": ["0x366c...", "0xd488..."]},
//	  "method":   {"methodA": {"blacklist": ["0xba7f..."]}},
//	  "argument": {"argA": {"whitelist": ["0x3540..."]}}
//	}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/ts"
	replicanet "repro/internal/ts/replica/net"
	"repro/internal/ts/ring"
	"repro/internal/ts/stack"
	"repro/internal/tshttp"
)

// The flags are package-level so the test binary registers them too:
// TestDocsNameOnlyRealFlags checks the docs against flag.CommandLine.
var (
	addr       = flag.String("addr", ":8546", "listen address")
	keySeed    = flag.String("key-seed", "", "deterministic seed for skTS (empty: random key)")
	rulesPath  = flag.String("rules", "", "path to a Fig. 6-style rules JSON file (empty: allow all)")
	ownerToken = flag.String("owner-token", "", "bearer secret for rule administration (empty: admin disabled)")
	lifetime   = flag.Duration("lifetime", time.Hour, "token lifetime")
	needProof  = flag.Bool("require-proof", false, "demand a proof of possession on every request")
	dirPath    = flag.String("dir", "", "make the state durable: the counter WAL and snapshots, a replica's WAL, or a -group-name frontend's membership journal (empty: in-memory)")

	replicaOf = flag.String("replica-of", "", "run as a counter replica for the named group: serve the quorum protocol (fence/grant/state) on -addr instead of the token API (takes only -addr and -dir)")
	peers     = flag.String("peers", "", "comma-separated replica base URLs (odd count): allocate one-time index blocks through a majority quorum of them instead of locally; frontends sharing one quorum issue disjoint indexes")

	groupName     = flag.String("group-name", "", "dynamic membership: this frontend's named replica group — serve the membership protocol and stripe blocks under an epoch-numbered view that admits joins and drains at runtime (requires -peers and -initial-groups)")
	initialGroups = flag.String("initial-groups", "", `"name=url,...": bootstrap membership view mapping each group to its frontend base URL; a -group-name absent from the list boots as a joiner and serves only after POST /v1/admin/join admits it (ignored when -dir holds a persisted view)`)

	metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics on this separate listener (empty: the main listener's /metrics)")
	pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof/* on the metrics listener (or the main one without -metrics-addr)")
)

func main() {
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := validateFlags(set, *addr, *metricsAddr, *replicaOf, *peers, *groupName, *initialGroups); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-ts:", err)
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *replicaOf != "" {
		err = runReplica(*addr, *replicaOf, *dirPath)
	} else {
		var counter stack.Config
		counter, err = counterConfig(*dirPath, *peers, *groupName, *initialGroups, *ownerToken)
		if err == nil {
			err = run(*addr, *keySeed, *rulesPath, *ownerToken, *lifetime, *needProof, counter, *metricsAddr, *pprofOn)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smacs-ts:", err)
		os.Exit(1)
	}
}

// replicaFlags are the only flags a -replica-of process reads.
var replicaFlags = []string{"addr", "dir", "replica-of"}

// validateFlags rejects inconsistent observability and replication
// flags up front, so a typo exits with a usage message instead of a
// half-started daemon (-dir on a -peers frontend without -group-name is
// rejected by stack.Open). set names the flags given on the command
// line: a replica takes none of the frontend's.
func validateFlags(set []string, addr, metricsAddr, replicaOf, peers, groupName, initialGroups string) error {
	if replicaOf != "" {
		for _, name := range set {
			if !slices.Contains(replicaFlags, name) {
				return fmt.Errorf("-%s belongs on a frontend: -replica-of serves only the quorum protocol and takes just -addr and -dir", name)
			}
		}
		return nil
	}
	if metricsAddr != "" && metricsAddr == addr {
		return fmt.Errorf("-metrics-addr %q collides with -addr: the main listener already serves /metrics", metricsAddr)
	}
	if peers != "" {
		if n := len(splitList(peers)); n%2 == 0 {
			return fmt.Errorf("-peers needs an odd replica count for majority quorums, got %d", n)
		}
	}
	if groupName != "" {
		if peers == "" {
			return fmt.Errorf("-group-name runs dynamic membership over a replica quorum and requires -peers")
		}
		if initialGroups == "" {
			return fmt.Errorf("-group-name requires -initial-groups for the bootstrap membership view")
		}
		if _, _, err := parseInitialGroups(initialGroups); err != nil {
			return err
		}
	} else if initialGroups != "" {
		return fmt.Errorf("-initial-groups names the bootstrap membership and requires -group-name")
	}
	return nil
}

// parseInitialGroups parses the "name=url,name=url" bootstrap membership
// list. Group names come back sorted so independently started frontends
// derive identical view slots from the same list regardless of entry
// order — slot positions decide which blocks each group issues.
func parseInitialGroups(s string) ([]string, map[string]string, error) {
	urls := make(map[string]string)
	for _, pair := range splitList(s) {
		name, url, ok := strings.Cut(pair, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, nil, fmt.Errorf(`-initial-groups entries must look like "name=url", got %q`, pair)
		}
		if _, dup := urls[name]; dup {
			return nil, nil, fmt.Errorf("-initial-groups lists group %q twice", name)
		}
		urls[name] = url
	}
	if len(urls) == 0 {
		return nil, nil, fmt.Errorf("-initial-groups is empty")
	}
	groups := make([]string, 0, len(urls))
	for g := range urls {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	return groups, urls, nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// counterBlockSize is how many one-time indexes each shard leases per
// allocation; with a durable counter one fsynced WAL append covers a
// whole block, so the fsync cost amortizes across 64 issued tokens.
const counterBlockSize = 64

// counterConfig maps the counter flags onto a stack config with one
// issuance lane per GOMAXPROCS: -dir makes a local counter durable, or
// journals a -group-name frontend's membership under dir/membership;
// -peers allocates blocks through the replica quorum and issues them
// unchanged, and -group-name stripes them under the -initial-groups
// view, with a membership Manager.
func counterConfig(dir, peers, groupName, initialGroups, ownerToken string) (stack.Config, error) {
	cfg := stack.Config{Dir: dir, Shards: runtime.GOMAXPROCS(0), Block: counterBlockSize, Peers: splitList(peers), OwnerToken: ownerToken}
	if groupName != "" {
		groups, urls, err := parseInitialGroups(initialGroups)
		if err != nil {
			return stack.Config{}, err
		}
		cfg.Member, cfg.View, cfg.URLs = groupName, ring.View{Epoch: 1, Groups: groups}, urls
		if dir != "" {
			cfg.Dir = filepath.Join(dir, "membership")
		}
	}
	return cfg, nil
}

// runReplica serves the counter quorum protocol on addr: POST
// /v1/replica/{fence,grant} and GET /v1/replica/state, journaling every
// promise and grant under dir (when set) before acking, so a majority of
// surviving WALs always covers every committed lease. groupName is the
// label frontends know the replica group by; it appears only in the
// banner.
func runReplica(addr, groupName, dir string) error {
	node := replicanet.NewNode()
	if dir != "" {
		f, err := store.OpenFile(dir, store.FileOptions{})
		if err != nil {
			return err
		}
		if node, err = replicanet.OpenNode(f); err != nil {
			return err
		}
	}
	accepted, promised := node.State()
	fmt.Printf("SMACS Token Service counter replica (group %q)\n", groupName)
	if dir != "" {
		fmt.Printf("  state:       durable (WAL in %s); accepted lease %d, promised epoch %d\n", dir, accepted, promised)
	} else {
		fmt.Printf("  state:       in-memory — a restart forgets promises; use -dir outside tests\n")
	}
	fmt.Printf("  listening:   %s (POST /v1/replica/{fence,grant}, GET /v1/replica/state)\n", addr)
	srv := &http.Server{Addr: addr, Handler: node.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return srv.ListenAndServe()
}

func run(addr, keySeed, rulesPath, ownerToken string, lifetime time.Duration, needProof bool, counter stack.Config, metricsAddr string, pprofOn bool) error {
	var key *secp256k1.PrivateKey
	if keySeed != "" {
		key = secp256k1.PrivateKeyFromSeed([]byte(keySeed))
	} else {
		var err error
		key, err = secp256k1.GenerateKey(nil)
		if err != nil {
			return err
		}
	}

	ruleSet := rules.NewRuleSet()
	if rulesPath != "" {
		raw, err := os.ReadFile(rulesPath)
		if err != nil {
			return fmt.Errorf("rules file: %w", err)
		}
		if err := json.Unmarshal(raw, ruleSet); err != nil {
			return fmt.Errorf("rules file: %w", err)
		}
	}

	// One registry holds every layer's series: the counter stack's, the
	// service's and the HTTP frontend's; both /metrics routes render it.
	reg := metrics.NewRegistry()
	counter.Registry = reg
	c, err := stack.Open(counter)
	if err != nil {
		return err
	}
	ts.RegisterCounterMetrics(reg, c)

	svc, err := ts.New(ts.Config{Key: key, Rules: ruleSet, Lifetime: lifetime, RequireProof: needProof, Counter: c, Metrics: reg})
	if err != nil {
		return err
	}
	opts := tshttp.ServerOptions{Registry: reg, Pprof: pprofOn && metricsAddr == ""}
	if c.Manager != nil {
		opts.Admin = c.Manager.Handler()
	}
	server := tshttp.NewServerWithOptions(svc, ownerToken, opts)

	if metricsAddr != "" {
		// Bind synchronously so a bad -metrics-addr fails the start, not a
		// goroutine minutes later; serve in the background thereafter.
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		go func() {
			if err := http.Serve(ln, metricsHandler(reg, pprofOn)); err != nil {
				fmt.Fprintln(os.Stderr, "smacs-ts: metrics listener:", err)
			}
		}()
	}

	fmt.Printf("SMACS Token Service\n")
	fmt.Printf("  signing address: %s  (preload this into your contracts' verifier)\n", svc.Address())
	fmt.Printf("  token lifetime:  %s\n", lifetime)
	switch {
	case c.Manager != nil:
		st := c.Manager.State()
		fmt.Printf("  index counter:   replicated (quorum of %d peers, %d shards; group %q under membership epoch %d of %d groups)\n",
			len(counter.Peers), counter.Shards, counter.Member, st.View.Epoch, len(st.View.Groups))
	case c.Coordinator != nil:
		fmt.Printf("  index counter:   replicated (quorum of %d peers, %d shards)\n", len(counter.Peers), counter.Shards)
	case c.Store != nil:
		fmt.Printf("  index counter:   durable (WAL in %s, %d shards)\n", counter.Dir, counter.Shards)
	default:
		fmt.Printf("  index counter:   in-memory (%d shards; restart forgets the high-water mark)\n", counter.Shards)
	}
	fmt.Printf("  listening on:    %s\n", addr)
	if metricsAddr != "" {
		fmt.Printf("  metrics on:      %s/metrics", metricsAddr)
	} else {
		fmt.Printf("  metrics on:      %s/metrics", addr)
	}
	if pprofOn {
		fmt.Printf(" (+ /debug/pprof)")
	}
	fmt.Printf("\n")
	if ownerToken == "" {
		fmt.Printf("  rule admin:      disabled (set -owner-token to enable)\n")
		if c.Manager != nil {
			fmt.Printf("  membership:      endpoints mounted but unreachable without -owner-token\n")
		}
	}

	// Serve until SIGTERM/SIGINT, then drain in-flight requests and hand
	// the unexhausted block leases back (journaled as reclaim offers) so
	// a clean restart re-issues the remainders instead of burning them.
	srv := &http.Server{Addr: addr, Handler: server.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Printf("smacs-ts: %s — draining requests and releasing block leases\n", sig)
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "smacs-ts: shutdown:", err)
		}
		return c.Close(true)
	}
}

// metricsHandler serves reg, the registry every layer of the frontend
// records into, on the dedicated observability listener.
func metricsHandler(reg *metrics.Registry, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
