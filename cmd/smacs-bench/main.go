// Command smacs-bench regenerates the paper's evaluation tables and
// figures (§ VI) and prints them in the paper's layout, and runs the
// concurrent-issuance load generator beyond the paper's single-threaded
// measurements.
//
// Usage:
//
//	smacs-bench -all             # everything (Fig. 9 up to 10^5 requests)
//	smacs-bench -all -quick      # everything, smaller workloads
//	smacs-bench -table 2         # Tab. II only (also: 3, 4)
//	smacs-bench -figure 8        # Fig. 8 only (also: 9)
//	smacs-bench -tools           # § VI-B runtime-verification throughput
//	smacs-bench -baseline        # E7 on-chain whitelist baseline
//	smacs-bench -mode load       # concurrent-issuance load sweep
//	smacs-bench -mode load -workers 1,4,8 -duration 2s -warmup 250ms \
//	    -batch 32 -csv out/load.csv
//	smacs-bench -mode load -store file -fsync-batch 16   # durable WAL-backed counter
//	smacs-bench -mode e2e        # end-to-end scenarios (HTTP TS → clients → chain)
//	smacs-bench -mode e2e -scenario adversarial -smoke
//	smacs-bench -mode e2e -scenario durable -smoke       # crash + WAL recovery mid-run
//	smacs-bench -mode e2e -smoke -envelope out/e2e-envelope.json   # CI gate
//	smacs-bench -mode e2e -smoke -trace out/trace.json   # sampled stage traces
//	smacs-bench -mode shard      # sharded-issuance scaling over replica groups
//	smacs-bench -mode shard -groups 1,2,4 -clients 16 -ops 60 -rtt 10ms \
//	    -csv out/shard.csv
//
// Every sweep mode also writes a git-SHA-stamped trajectory artifact
// (out/BENCH_<mode>.json by default; see -bench-json) so CI can archive
// per-commit performance without re-running old commits.
//
// Flag combinations are validated up front: an unknown -scenario, or
// unknown entries in -modes, exit with status 2 and a usage message
// instead of being silently ignored.
//
// Interrupting a sweep (SIGINT/SIGTERM) flushes every completed row as a
// valid partial table/JSON — and partial CSV when -csv is set — before
// exiting with status 130, so long sweeps never discard finished cells.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (2, 3, or 4)")
		figure   = flag.Int("figure", 0, "regenerate one figure (8 or 9)")
		tools    = flag.Bool("tools", false, "regenerate the § VI-B tool measurements")
		baseline = flag.Bool("baseline", false, "run the on-chain whitelist baseline (E7)")
		missrate = flag.Bool("missrate", false, "run the § IV-C bitmap-size vs miss-rate tradeoff")
		all      = flag.Bool("all", false, "regenerate everything")
		quick    = flag.Bool("quick", false, "smaller workloads (Fig. 9 to 10^3, baseline to 1000)")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of the paper-layout tables")

		mode     = flag.String("mode", "", `"load" runs the concurrent-issuance load generator; "e2e" runs the end-to-end scenario harness; "shard" runs the sharded-issuance scaling sweep over replica-group counts`)
		workers  = flag.String("workers", "1,2,4,8", "load: comma-separated worker counts to sweep")
		duration = flag.Duration("duration", 2*time.Second, "load: measured interval per cell")
		warmup   = flag.Duration("warmup", 250*time.Millisecond, "load: unmeasured warmup per cell")
		onetime  = flag.Bool("onetime", true, "load: request one-time tokens (exercises the counter)")
		rtt      = flag.Duration("rtt", time.Millisecond, "load: modeled quorum round-trip per index allocation (0 = in-process counter); shard: delay injected per replica hop (try 10ms)")
		batch    = flag.Int("batch", 32, "load: requests per IssueBatch call; shard: tokens per POST /v1/tokens round-trip")
		modes    = flag.String("modes", "", "load: comma-separated subset of locked,atomic,sharded,batch")
		csvPath  = flag.String("csv", "", "load/shard: also write the sweep as CSV to this path")

		groups  = flag.String("groups", "1,2,4", "shard: comma-separated replica-group counts to sweep")
		clients = flag.Int("clients", 16, "shard: concurrent wallet clients, routed to groups by the consistent-hash ring")
		ops     = flag.Int("ops", 60, "shard: one-time tokens per client")
		join    = flag.Bool("join", false, "shard: live-resharding cells — a replica group joins mid-run through the membership protocol")

		scenario      = flag.String("scenario", "", "e2e: comma-separated subset of "+strings.Join(bench.ScenarioNames(), ",")+` (or "all", the default)`)
		smoke         = flag.Bool("smoke", false, "e2e: small deterministic sizing (the scale the CI envelope pins)")
		envelopePath  = flag.String("envelope", "", "e2e: compare correctness counts against this envelope JSON and fail on drift")
		writeEnvelope = flag.String("write-envelope", "", "e2e: write the run's correctness counts as an envelope JSON to this path")

		storeKind  = flag.String("store", "mem", `load: counter persistence, "mem" or "file" (a durable WAL-backed store.Counter)`)
		dirPath    = flag.String("dir", "", "load/e2e: directory for file-backed WALs and snapshots (empty: a temp dir)")
		fsyncBatch = flag.Int("fsync-batch", 0, "load/e2e: appends coalesced per fsync in file-backed stores (0: store default)")

		benchJSON = flag.String("bench-json", "auto", `sweep modes: write the sweep as a git-SHA-stamped trajectory artifact ("auto": out/BENCH_<mode>.json, "": disabled, else an explicit path)`)
		tracePath = flag.String("trace", "", "e2e: write sampled per-operation stage traces (token round-trip → batch → commit) as JSON to this path")
	)
	flag.Parse()

	if err := validateSelection(*mode, *scenario, *modes, *smoke, *envelopePath, *writeEnvelope, *storeKind, *dirPath, *fsyncBatch, *benchJSON, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-bench:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *mode != "" {
		// A SIGINT (or SIGTERM) mid-sweep flushes every completed row as
		// a valid partial table/JSON/CSV before exiting, instead of
		// discarding minutes of finished cells.
		flusher := &partialFlusher{csvPath: *csvPath, asJSON: *asJSON}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			flusher.flush()
			os.Exit(130)
		}()

		benchPath := benchArtifactPath(*benchJSON, *mode)
		var err error
		switch *mode {
		case "load":
			err = runLoad(*workers, *duration, *warmup, *onetime, *rtt, *batch, *modes,
				*storeKind, *dirPath, *fsyncBatch, *csvPath, benchPath, *asJSON, flusher)
		case "e2e":
			err = runE2E(*scenario, *smoke, *envelopePath, *writeEnvelope,
				*dirPath, *fsyncBatch, *csvPath, benchPath, *tracePath, *asJSON, flusher)
		case "shard":
			err = runShard(*groups, *clients, *ops, *batch, *rtt, *join, *csvPath, benchPath, *asJSON, flusher)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smacs-bench:", err)
			os.Exit(1)
		}
		return
	}

	if !*all && *table == 0 && *figure == 0 && !*tools && !*baseline && !*missrate {
		*all = true
	}
	if err := run(*table, *figure, *tools, *baseline, *missrate, *all, *quick, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-bench:", err)
		os.Exit(1)
	}
}

// validateSelection rejects inconsistent flag combinations before any
// measurement runs: unknown modes, unknown -scenario / -modes entries,
// and e2e-only flags outside -mode e2e. Catching these up front means a
// typo exits with a usage message instead of silently discarding minutes
// of completed sweep cells.
func validateSelection(mode, scenario, modes string, smoke bool, envelopePath, writeEnvelope, storeKind, dirPath string, fsyncBatch int, benchJSON, tracePath string) error {
	switch mode {
	case "", "load", "e2e", "shard":
	default:
		return fmt.Errorf("unknown -mode %q (supported: load, e2e, shard)", mode)
	}
	switch storeKind {
	case "mem", "file":
	default:
		return fmt.Errorf("unknown -store %q (supported: mem, file)", storeKind)
	}
	if storeKind == "file" && mode != "load" {
		return fmt.Errorf("-store file requires -mode load (the e2e durable scenario is always file-backed)")
	}
	if dirPath != "" && mode != "e2e" && storeKind != "file" {
		return fmt.Errorf("-dir requires -store file or -mode e2e")
	}
	if fsyncBatch != 0 && mode != "e2e" && storeKind != "file" {
		return fmt.Errorf("-fsync-batch requires -store file or -mode e2e")
	}
	if fsyncBatch < 0 {
		return fmt.Errorf("-fsync-batch must be ≥ 0, got %d", fsyncBatch)
	}
	checkEntries := func(flagName, entries string, supported []string) error {
		valid := make(map[string]bool, len(supported))
		for _, s := range supported {
			valid[s] = true
		}
		for _, entry := range splitModes(entries) {
			if !valid[entry] {
				return fmt.Errorf("unknown %s entry %q (supported: %s)",
					flagName, entry, strings.Join(supported, ", "))
			}
		}
		return nil
	}
	if scenario != "" {
		if mode != "e2e" {
			return fmt.Errorf("-scenario requires -mode e2e")
		}
		if scenario != "all" {
			if err := checkEntries("-scenario", scenario, bench.ScenarioNames()); err != nil {
				return err
			}
		}
	}
	if mode != "e2e" {
		if smoke {
			return fmt.Errorf("-smoke requires -mode e2e")
		}
		if envelopePath != "" {
			return fmt.Errorf("-envelope requires -mode e2e")
		}
		if writeEnvelope != "" {
			return fmt.Errorf("-write-envelope requires -mode e2e")
		}
	}
	if modes != "" {
		if mode != "load" {
			return fmt.Errorf("-modes requires -mode load")
		}
		if err := checkEntries("-modes", modes, bench.LoadModes); err != nil {
			return err
		}
	}
	if tracePath != "" && mode != "e2e" {
		return fmt.Errorf("-trace requires -mode e2e")
	}
	// "auto" is the default and silently degrades to "no artifact" for the
	// paper tables; an explicit path outside the sweep modes is a mistake.
	if benchJSON != "" && benchJSON != "auto" && mode == "" {
		return fmt.Errorf("-bench-json requires -mode load, e2e, or shard")
	}
	return nil
}

func parseWorkers(workers string) ([]int, error) {
	return parseInts("-workers", workers)
}

func parseInts(flagName, list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func splitModes(modes string) []string {
	var out []string
	for _, m := range strings.Split(modes, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// sweepResult is the common shape of the sweep modes' results: a table
// renderer plus a CSV dump.
type sweepResult interface {
	Format() string
	CSV() string
}

// partialFlusher holds a snapshot of the completed sweep rows so the
// signal handler can emit a valid partial result — table or JSON, plus
// the -csv file — when the process is interrupted mid-sweep. The runners
// update it from each sweep's OnRow callback; set copies nothing (each
// snapshot is freshly built by the caller), it only swaps the pointer
// under the mutex the handler reads through.
type partialFlusher struct {
	mu      sync.Mutex
	res     sweepResult
	csvPath string
	asJSON  bool
}

func (p *partialFlusher) set(res sweepResult) {
	p.mu.Lock()
	p.res = res
	p.mu.Unlock()
}

func (p *partialFlusher) flush() {
	p.mu.Lock()
	res := p.res
	p.mu.Unlock()
	if res == nil {
		fmt.Fprintln(os.Stderr, "smacs-bench: interrupted before any sweep row completed")
		return
	}
	fmt.Fprintln(os.Stderr, "smacs-bench: interrupted; flushing completed rows")
	if err := emitSweep(res, p.csvPath, p.asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-bench:", err)
	}
}

// emitSweep prints a sweep (table or JSON) and optionally writes its CSV.
func emitSweep(res sweepResult, csvPath string, asJSON bool) error {
	if asJSON {
		enc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(enc))
	} else {
		fmt.Println(res.Format())
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(res.CSV()), 0o644); err != nil {
			return fmt.Errorf("write CSV: %w", err)
		}
		fmt.Fprintln(os.Stderr, "wrote", csvPath)
	}
	return nil
}

func runLoad(workers string, duration, warmup time.Duration, onetime bool, rtt time.Duration, batch int, modes, storeKind, dir string, fsyncBatch int, csvPath, benchPath string, asJSON bool, flusher *partialFlusher) error {
	cfg := bench.LoadConfig{
		Duration:   duration,
		Warmup:     warmup,
		OneTime:    onetime,
		BatchSize:  batch,
		RTT:        rtt,
		Store:      storeKind,
		Dir:        dir,
		FsyncBatch: fsyncBatch,
	}
	var err error
	if cfg.Workers, err = parseWorkers(workers); err != nil {
		return err
	}
	cfg.Modes = splitModes(modes)
	var rows []bench.LoadRow
	cfg.OnRow = func(r bench.LoadRow) {
		rows = append(rows, r)
		flusher.set(&bench.LoadResult{Config: cfg, Rows: append([]bench.LoadRow(nil), rows...)})
	}
	res, err := bench.Load(cfg)
	if err != nil {
		return err
	}
	if err := emitSweep(res, csvPath, asJSON); err != nil {
		return err
	}
	return writeBenchArtifact(benchPath, "load", res)
}

// runShard drives the sharded-issuance scaling sweep: for each group
// count G, the one-time token keyspace is split by the consistent-hash
// ring across G independent 3-replica quorum groups (each replica behind
// a -rtt delay proxy), and tokens/s must rise with G. With -join each
// cell instead reshards live: a (G+1)-th group joins mid-run through the
// membership protocol, and the row reports the issuance rate before,
// during, and after the change.
func runShard(groups string, clients, ops, batch int, rtt time.Duration, join bool, csvPath, benchPath string, asJSON bool, flusher *partialFlusher) error {
	cfg := bench.ShardConfig{
		Clients:    clients,
		Ops:        ops,
		TokenBatch: batch,
		RTT:        rtt,
		Join:       join,
	}
	var err error
	if cfg.Groups, err = parseInts("-groups", groups); err != nil {
		return err
	}
	var rows []bench.ShardRow
	cfg.OnRow = func(r bench.ShardRow) {
		rows = append(rows, r)
		flusher.set(&bench.ShardResult{Config: cfg, Rows: append([]bench.ShardRow(nil), rows...)})
	}
	var joinRows []bench.JoinRow
	cfg.OnJoinRow = func(r bench.JoinRow) {
		joinRows = append(joinRows, r)
		flusher.set(&bench.ShardResult{Config: cfg, JoinRows: append([]bench.JoinRow(nil), joinRows...)})
	}
	res, err := bench.Shard(cfg)
	if err != nil {
		return err
	}
	if err := emitSweep(res, csvPath, asJSON); err != nil {
		return err
	}
	return writeBenchArtifact(benchPath, "shard", res)
}

// runE2E drives the end-to-end scenario harness and, when asked, writes
// or checks the correctness-count envelope. An envelope mismatch is an
// error, so CI fails the build on functional drift in the full pipeline.
func runE2E(scenario string, smoke bool, envelopePath, writeEnvelope, dir string, fsyncBatch int, csvPath, benchPath, tracePath string, asJSON bool, flusher *partialFlusher) error {
	if scenario == "all" {
		scenario = ""
	}
	cfg := bench.E2EConfig{
		Scenarios:  splitModes(scenario),
		Smoke:      smoke,
		Dir:        dir,
		FsyncBatch: fsyncBatch,
	}
	var tracer *metrics.Tracer
	if tracePath != "" {
		tracer = metrics.NewTracer(0)
		cfg.Tracer = tracer
	}
	var rows []bench.E2ERow
	cfg.OnRow = func(r bench.E2ERow) {
		rows = append(rows, r)
		flusher.set(&bench.E2EResult{Config: cfg, Rows: append([]bench.E2ERow(nil), rows...)})
	}
	res, err := bench.E2E(cfg)
	if err != nil {
		return err
	}
	if err := emitSweep(res, csvPath, asJSON); err != nil {
		return err
	}
	if err := writeBenchArtifact(benchPath, "e2e", res); err != nil {
		return err
	}
	if tracePath != "" {
		dump, err := tracer.DumpJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(tracePath, append(dump, '\n'), 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "wrote", tracePath, "(", tracer.Len(), "traces )")
	}
	if writeEnvelope != "" {
		enc, err := json.MarshalIndent(res.Envelope(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(writeEnvelope, append(enc, '\n'), 0o644); err != nil {
			return fmt.Errorf("write envelope: %w", err)
		}
		fmt.Fprintln(os.Stderr, "wrote", writeEnvelope)
	}
	if envelopePath != "" {
		raw, err := os.ReadFile(envelopePath)
		if err != nil {
			return fmt.Errorf("read envelope: %w", err)
		}
		var env bench.Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			return fmt.Errorf("parse envelope %s: %w", envelopePath, err)
		}
		if err := res.CheckEnvelope(&env); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "envelope check passed:", envelopePath)
	}
	return nil
}

func run(table, figure int, tools, baseline, missrate, all, quick, asJSON bool) error {
	type job struct {
		enabled bool
		run     func() (interface{ Format() string }, error)
	}
	fig9Exp := 5
	baselineSizes := []int{100, 1000, 7473, 10000}
	toolReqs := 100
	missTokens := 2000
	if quick {
		fig9Exp = 3
		baselineSizes = []int{100, 1000}
		toolReqs = 25
		missTokens = 500
	}
	jobs := []job{
		{all || table == 2, func() (interface{ Format() string }, error) { return bench.TableII() }},
		{all || table == 3, func() (interface{ Format() string }, error) { return bench.TableIII() }},
		{all || table == 4, func() (interface{ Format() string }, error) { return bench.TableIV() }},
		{all || figure == 8, func() (interface{ Format() string }, error) { return bench.Figure8() }},
		{all || figure == 9, func() (interface{ Format() string }, error) { return bench.Figure9(fig9Exp) }},
		{all || tools, func() (interface{ Format() string }, error) { return bench.RuntimeTools(toolReqs) }},
		{all || baseline, func() (interface{ Format() string }, error) { return bench.Baseline(baselineSizes) }},
		{all || missrate, func() (interface{ Format() string }, error) {
			return bench.MissRate(missTokens, 35, 60, nil)
		}},
	}
	ran := false
	for _, j := range jobs {
		if !j.enabled {
			continue
		}
		res, err := j.run()
		if err != nil {
			return err
		}
		if asJSON {
			enc, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(enc))
		} else {
			fmt.Println(res.Format())
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("nothing selected: table=%d figure=%d", table, figure)
	}
	return nil
}
