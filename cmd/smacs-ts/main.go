// Command smacs-ts runs a SMACS Token Service with its HTTP front end
// (Fig. 1): clients POST token requests to /v1/token; the owner manages
// Access Control Rules on /v1/rules with a bearer secret.
//
// Usage:
//
//	smacs-ts -addr :8546 -key-seed my-service -rules rules.json \
//	         -owner-token s3cret -lifetime 1h
//
// With -store file the one-time index counter survives restarts: every
// leased index block is journaled to a group-commit WAL under -dir
// before any index from it is handed out, and a restarted service
// resumes strictly above its highest durable lease — no index is ever
// issued twice across a crash (see internal/store):
//
//	smacs-ts -store file -dir /var/lib/smacs-ts -fsync-batch 16
//
// Distributed deployment: the counter can be replicated across
// processes. Replicas serve the lease-based quorum protocol
// (internal/ts/replica/net); frontends allocate index blocks through a
// majority of them, so any single replica can crash, partition, or lag
// without stopping issuance — and a majority's WALs are enough to
// recover, never re-issuing an index:
//
//	smacs-ts -replica-of sale -addr :9001 -store file -dir /var/lib/r1
//	smacs-ts -replica-of sale -addr :9002 -store file -dir /var/lib/r2
//	smacs-ts -replica-of sale -addr :9003 -store file -dir /var/lib/r3
//	smacs-ts -addr :8546 -peers http://h1:9001,http://h2:9002,http://h3:9003
//
// Several frontends can share one keyspace without coordinating:
// -group i/n stripes the quorum-allocated blocks so frontend i of n
// issues indexes disjoint from every other frontend's (consistent-hash
// routing of wallets to frontends lives client-side; see
// internal/ts/ring):
//
//	smacs-ts -addr :8546 -peers ... -group 0/2
//	smacs-ts -addr :8547 -peers ... -group 1/2
//
// Dynamic membership replaces the fixed -group i/n striping with named
// replica groups that can join and drain at runtime. Each frontend
// names its group and the bootstrap membership; an operator then drives
// changes through the owner-guarded admin endpoints
// (POST /v1/admin/{join,drain}) on any live frontend, and every member
// adopts the new epoch-numbered view without ever issuing a duplicate
// one-time index (see internal/ts/membership). With -dir the adopted
// views and released block leases are journaled under dir/membership,
// so a restarted frontend resumes its last view instead of its boot
// view:
//
//	smacs-ts -addr :8546 -peers ... -group-name g1 \
//	         -initial-groups g1=http://h1:8546,g2=http://h2:8546 -dir /var/lib/fe1
//
// On SIGTERM the daemon drains in-flight requests and releases its
// unexhausted block leases (journaled with -store file or -group-name
// plus -dir), so a clean restart re-issues the remainders instead of
// burning them.
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
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/ts"
	"repro/internal/ts/membership"
	replicanet "repro/internal/ts/replica/net"
	"repro/internal/ts/ring"
	"repro/internal/tshttp"
)

func main() {
	var (
		addr       = flag.String("addr", ":8546", "listen address")
		keySeed    = flag.String("key-seed", "", "deterministic seed for skTS (empty: random key)")
		rulesPath  = flag.String("rules", "", "path to a Fig. 6-style rules JSON file (empty: allow all)")
		ownerToken = flag.String("owner-token", "", "bearer secret for rule administration (empty: admin disabled)")
		lifetime   = flag.Duration("lifetime", time.Hour, "token lifetime")
		needProof  = flag.Bool("require-proof", false, "demand a proof of possession on every request")
		storeKind  = flag.String("store", "mem", `one-time counter persistence: "mem" (lost on restart) or "file" (WAL under -dir)`)
		dirPath    = flag.String("dir", "", "-store file: directory for the counter WAL and snapshots (with -group-name: for the membership journal)")
		fsyncBatch = flag.Int("fsync-batch", 0, "appends coalesced per fsync of the journal (-store file, or -group-name with -dir; 0: store default)")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "index counter shards (concurrent issuance lanes)")

		replicaOf = flag.String("replica-of", "", "run as a counter replica for the named group: serve the quorum protocol (fence/grant/state) on -addr instead of the token API")
		peers     = flag.String("peers", "", "comma-separated replica base URLs (odd count): allocate one-time index blocks through a majority quorum of them instead of locally")
		group     = flag.String("group", "", `"i/n": this frontend is shard i of n sharing the replica group — its blocks are striped so all n issue globally unique indexes with no coordination (requires -peers)`)

		groupName     = flag.String("group-name", "", "dynamic membership: this frontend's named replica group — serve the membership protocol and stripe blocks under an epoch-numbered view that admits joins and drains at runtime (requires -peers and -initial-groups; exclusive with -group)")
		initialGroups = flag.String("initial-groups", "", `"name=url,...": bootstrap membership view mapping each group to its frontend base URL; a -group-name absent from the list boots as a joiner and serves only after POST /v1/admin/join admits it (ignored when -dir holds a persisted view)`)

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics on this separate listener (empty: the main listener's /metrics)")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof/* on the metrics listener (or the main one without -metrics-addr)")
	)
	flag.Parse()
	if err := validateFlags(*addr, *metricsAddr, *shards, *fsyncBatch, *replicaOf, *peers, *group, *groupName, *initialGroups); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-ts:", err)
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *replicaOf != "" {
		err = runReplica(*addr, *replicaOf, *storeKind, *dirPath, *fsyncBatch)
	} else {
		err = run(*addr, *keySeed, *rulesPath, *ownerToken, *lifetime, *needProof, *storeKind, *dirPath, *fsyncBatch, *shards, *peers, *group, *groupName, *initialGroups, *metricsAddr, *pprofOn)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smacs-ts:", err)
		os.Exit(1)
	}
}

// validateFlags rejects inconsistent observability, sizing, and
// replication flags up front, so a typo exits with a usage message
// instead of a half-started daemon (the -store/-dir combinations are
// validated by openCounter).
func validateFlags(addr, metricsAddr string, shards, fsyncBatch int, replicaOf, peers, group, groupName, initialGroups string) error {
	if metricsAddr != "" && metricsAddr == addr {
		return fmt.Errorf("-metrics-addr %q collides with -addr: the main listener already serves /metrics", metricsAddr)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", shards)
	}
	if fsyncBatch < 0 {
		return fmt.Errorf("-fsync-batch must be ≥ 0, got %d", fsyncBatch)
	}
	if replicaOf != "" {
		if peers != "" || group != "" || groupName != "" {
			return fmt.Errorf("-replica-of runs the quorum protocol server; -peers, -group, and -group-name belong on frontends")
		}
		if metricsAddr != "" {
			return fmt.Errorf("-metrics-addr is not served in replica mode")
		}
		return nil
	}
	if peers != "" {
		if n := len(splitList(peers)); n%2 == 0 {
			return fmt.Errorf("-peers needs an odd replica count for majority quorums, got %d", n)
		}
	}
	if group != "" {
		if peers == "" {
			return fmt.Errorf("-group stripes quorum-allocated blocks and requires -peers")
		}
		if groupName != "" {
			return fmt.Errorf("-group (static striping) and -group-name (dynamic membership) are mutually exclusive")
		}
		if _, _, err := parseGroup(group); err != nil {
			return err
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
	sort.Strings(groups)
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

// parseGroup parses the "-group i/n" shard position. The whole value
// must parse: trailing input ("0/2/3", "0/2x") is rejected, not ignored.
func parseGroup(s string) (index, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	index, errI := strconv.Atoi(i)
	count, errN := strconv.Atoi(n)
	if !ok || errI != nil || errN != nil {
		return 0, 0, fmt.Errorf(`-group must look like "i/n" (e.g. 0/2), got %q`, s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-group %q out of range: need 0 ≤ i < n", s)
	}
	return index, count, nil
}

// counterBlockSize is how many one-time indexes each shard leases per
// durable allocation; with -store file one fsynced WAL append covers a
// whole block, so the fsync cost amortizes across 64 issued tokens.
const counterBlockSize = 64

// counterStack bundles the service's one-time index counter with the
// hooks the daemon drives around it: startup adoption of leases a
// previous incarnation released, clean-shutdown lease release, and the
// membership manager when the frontend runs a dynamic replica group.
type counterStack struct {
	counter  ts.Counter
	sharded  *ts.ShardedCounter
	reclaims *store.Counter      // reclaim-offer ledger (nil: releases are lost on exit)
	manager  *membership.Manager // non-nil only with -group-name
	backend  *store.File         // closed on clean shutdown to flush batched appends
}

// adoptPending feeds lease remainders a previous incarnation released
// into the sharded counter's free-list. PendingReclaims journals the
// adoption before returning, so the ranges re-issue at most once even
// if this incarnation crashes mid-way.
func (cs *counterStack) adoptPending() error {
	if cs.reclaims == nil {
		return nil
	}
	pending, err := cs.reclaims.PendingReclaims()
	if err != nil {
		return err
	}
	for _, r := range pending {
		if err := cs.sharded.Adopt([]ts.IndexRange{{From: r.From, To: r.To}}); err != nil {
			return err
		}
	}
	return nil
}

// release drains every unexhausted block-lease remainder and journals
// it as a reclaim offer, so a clean shutdown strands no one-time
// indexes: the next incarnation adopts and re-issues the remainders
// instead of burning the blocks.
func (cs *counterStack) release() error {
	ranges := cs.sharded.Release()
	if len(ranges) == 0 || cs.reclaims == nil {
		return nil
	}
	out := make([]store.IndexRange, len(ranges))
	for i, r := range ranges {
		out[i] = store.IndexRange{From: r.From, To: r.To}
	}
	return cs.reclaims.ReleaseRanges(out)
}

func (cs *counterStack) close() error {
	if cs.backend == nil {
		return nil
	}
	return cs.backend.Close()
}

// openCounter builds the service's one-time index counter stack. "mem"
// keeps the default in-memory counter (restart forgets the high-water
// mark — only safe when contracts' bitmaps are re-deployed too); "file"
// journals every block lease so a restarted service never re-issues an
// index; -peers allocates blocks through a majority quorum of counter
// replicas (see openReplicatedCounter).
func openCounter(storeKind, dirPath string, fsyncBatch, shards int, peers, group, groupName, initialGroups, ownerToken string) (*counterStack, error) {
	if peers != "" {
		if storeKind != "mem" {
			return nil, fmt.Errorf("-peers moves counter durability to the replicas; drop -store file (with -group-name, -dir holds only the membership journal)")
		}
		return openReplicatedCounter(dirPath, fsyncBatch, shards, peers, group, groupName, initialGroups, ownerToken)
	}
	switch storeKind {
	case "mem":
		if dirPath != "" || fsyncBatch != 0 {
			return nil, fmt.Errorf("-dir and -fsync-batch require -store file")
		}
		sc, err := ts.NewShardedCounter(nil, shards, counterBlockSize)
		if err != nil {
			return nil, err
		}
		return &counterStack{counter: sc, sharded: sc}, nil
	case "file":
		if dirPath == "" {
			return nil, fmt.Errorf("-store file requires -dir")
		}
		if err := os.MkdirAll(dirPath, 0o755); err != nil {
			return nil, err
		}
		f, err := store.OpenFile(dirPath, store.FileOptions{FsyncBatch: fsyncBatch})
		if err != nil {
			return nil, err
		}
		c, err := store.OpenCounter(f, store.DefaultCounterSnapshotEvery)
		if err != nil {
			return nil, err
		}
		sc, err := ts.NewShardedCounter(c, shards, counterBlockSize)
		if err != nil {
			return nil, err
		}
		cs := &counterStack{counter: sc, sharded: sc, reclaims: c, backend: f}
		if err := cs.adoptPending(); err != nil {
			return nil, err
		}
		return cs, nil
	default:
		return nil, fmt.Errorf("unknown -store %q (supported: mem, file)", storeKind)
	}
}

// openReplicatedCounter builds the replicated counter stack every -peers
// frontend runs: the quorum coordinator, a DynamicStripe over it, and
// the sharded counter on top. Only the stripe's view differs:
//
//   - plain -peers: the one-group view {epoch 1, ["0"]}, whose mapping
//     is the identity;
//   - -group i/n: the fixed view {epoch 1, ["0"…"n-1"]} at slot i, so
//     the k-th quorum block maps to (k-1)·n+i+1 and the n frontends
//     issue disjoint indexes without coordinating;
//   - -group-name: the bootstrap view from -initial-groups, plus the
//     membership Manager that serves the view-change protocol (and the
//     /v1/admin/repair recovery op). With -dir, dir/membership journals
//     adopted views AND released block leases — including the
//     reclaim/adopt handshake a drain's lease handoff runs through, so
//     an interrupted handoff is recovered at the next boot (snapshots
//     stay disabled there so no record kind is ever folded away); a
//     restart resumes the last adopted view, not the boot view.
func openReplicatedCounter(dirPath string, fsyncBatch, shards int, peers, group, groupName, initialGroups, ownerToken string) (*counterStack, error) {
	journaled := groupName != "" && dirPath != ""
	if dirPath != "" && !journaled {
		return nil, fmt.Errorf("-peers moves counter durability to the replicas; -dir holds only a -group-name membership journal")
	}
	if fsyncBatch != 0 && !journaled {
		return nil, fmt.Errorf("-fsync-batch needs a journal: -store file, or -group-name with -dir")
	}
	member, view := "0", ring.View{Epoch: 1, Groups: []string{"0"}}
	var urls map[string]string
	switch {
	case group != "":
		index, count, err := parseGroup(group)
		if err != nil {
			return nil, err
		}
		view.Groups = make([]string, count)
		for i := range view.Groups {
			view.Groups[i] = strconv.Itoa(i)
		}
		member = view.Groups[index]
	case groupName != "":
		groups, bootURLs, err := parseInitialGroups(initialGroups)
		if err != nil {
			return nil, err
		}
		member, view.Groups, urls = groupName, groups, bootURLs
	}

	cs := &counterStack{}
	var baseK int64
	var journal store.Backend
	if journaled {
		sub := filepath.Join(dirPath, "membership")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		f, err := store.OpenFile(sub, store.FileOptions{FsyncBatch: fsyncBatch})
		if err != nil {
			return nil, err
		}
		journal, cs.backend = f, f
		// The file's Replay is single-shot, and the journal has two
		// readers — replay once and feed both.
		snap, recs, err := f.Replay()
		if err != nil {
			return nil, err
		}
		if cs.reclaims, err = store.CounterFrom(f, snap, recs, -1); err != nil {
			return nil, err
		}
		st, ok, err := membership.StateFromRecords(recs)
		if err != nil {
			return nil, err
		}
		if ok {
			view, baseK, urls = st.View, st.BaseK, st.URLs
		}
	}
	coord, err := replicanet.NewCoordinator(splitList(peers), replicanet.Options{})
	if err != nil {
		return nil, err
	}
	stripe, err := ring.NewDynamicStripe(coord, member, view, baseK)
	if err != nil {
		return nil, err
	}
	sc, err := ts.NewShardedCounter(stripe, shards, counterBlockSize)
	if err != nil {
		return nil, err
	}
	cs.counter, cs.sharded = sc, sc
	if groupName != "" {
		cs.manager, err = membership.NewManager(membership.Config{
			Group:      groupName,
			Stripe:     stripe,
			Counter:    sc,
			Journal:    journal,
			Reclaims:   cs.reclaims,
			OwnerToken: ownerToken,
		}, view, urls, baseK)
		if err != nil {
			return nil, err
		}
	}
	if err := cs.adoptPending(); err != nil {
		return nil, err
	}
	return cs, nil
}

// runReplica serves the counter quorum protocol on addr: POST
// /v1/replica/{fence,grant} and GET /v1/replica/state, journaling every
// promise and grant before acking so a majority of surviving WALs always
// covers every committed lease. groupName is the label frontends know
// the replica group by; it appears only in the banner.
func runReplica(addr, groupName, storeKind, dirPath string, fsyncBatch int) error {
	var node *replicanet.Node
	switch storeKind {
	case "mem":
		if dirPath != "" || fsyncBatch != 0 {
			return fmt.Errorf("-dir and -fsync-batch require -store file")
		}
		node = replicanet.NewNode()
	case "file":
		if dirPath == "" {
			return fmt.Errorf("-store file requires -dir")
		}
		if err := os.MkdirAll(dirPath, 0o755); err != nil {
			return err
		}
		f, err := store.OpenFile(dirPath, store.FileOptions{FsyncBatch: fsyncBatch})
		if err != nil {
			return err
		}
		if node, err = replicanet.OpenNode(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -store %q (supported: mem, file)", storeKind)
	}
	accepted, promised := node.State()
	fmt.Printf("SMACS Token Service counter replica (group %q)\n", groupName)
	if storeKind == "file" {
		fmt.Printf("  state:       durable (WAL in %s); accepted lease %d, promised epoch %d\n", dirPath, accepted, promised)
	} else {
		fmt.Printf("  state:       in-memory — a restart forgets promises; use -store file outside tests\n")
	}
	fmt.Printf("  listening:   %s (POST /v1/replica/{fence,grant}, GET /v1/replica/state)\n", addr)
	srv := &http.Server{Addr: addr, Handler: node.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return srv.ListenAndServe()
}

func run(addr, keySeed, rulesPath, ownerToken string, lifetime time.Duration, needProof bool, storeKind, dirPath string, fsyncBatch, shards int, peers, group, groupName, initialGroups, metricsAddr string, pprofOn bool) error {
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

	cs, err := openCounter(storeKind, dirPath, fsyncBatch, shards, peers, group, groupName, initialGroups, ownerToken)
	if err != nil {
		return err
	}
	ts.RegisterCounterMetrics(nil, cs.counter)

	svc, err := ts.New(ts.Config{Key: key, Rules: ruleSet, Lifetime: lifetime, RequireProof: needProof, Counter: cs.counter})
	if err != nil {
		return err
	}
	opts := tshttp.ServerOptions{Pprof: pprofOn && metricsAddr == ""}
	if cs.manager != nil {
		opts.Admin = cs.manager.Handler()
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
			if err := http.Serve(ln, metricsHandler(pprofOn)); err != nil {
				fmt.Fprintln(os.Stderr, "smacs-ts: metrics listener:", err)
			}
		}()
	}

	fmt.Printf("SMACS Token Service\n")
	fmt.Printf("  signing address: %s  (preload this into your contracts' verifier)\n", svc.Address())
	fmt.Printf("  token lifetime:  %s\n", lifetime)
	switch {
	case groupName != "":
		st := cs.manager.State()
		fmt.Printf("  index counter:   replicated (quorum of %d peers, %d shards; group %q under membership epoch %d of %d groups)\n",
			len(splitList(peers)), shards, groupName, st.View.Epoch, len(st.View.Groups))
	case peers != "":
		fmt.Printf("  index counter:   replicated (quorum of %d peers, %d shards", len(splitList(peers)), shards)
		if group != "" {
			fmt.Printf(", shard %s of the keyspace", group)
		}
		fmt.Printf(")\n")
	case storeKind == "file":
		fmt.Printf("  index counter:   durable (WAL in %s, %d shards)\n", dirPath, shards)
	default:
		fmt.Printf("  index counter:   in-memory (%d shards; restart forgets the high-water mark)\n", shards)
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
		if cs.manager != nil {
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
		if err := cs.release(); err != nil {
			_ = cs.close()
			return fmt.Errorf("release block leases: %w", err)
		}
		return cs.close()
	}
}

// metricsHandler serves the process-default registry (the one the service,
// store, and HTTP frontend all record into when no explicit registry is
// configured) on the dedicated observability listener.
func metricsHandler(pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Default().Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
