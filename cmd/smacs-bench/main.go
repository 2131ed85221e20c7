// Command smacs-bench regenerates the paper's evaluation tables and
// figures (§ VI) and prints them in the paper's layout, and runs the
// end-to-end scenario harness whose exact accept/reject counts CI pins
// against out/e2e-envelope.json. Performance numbers are not its job:
// those come from the repo benchmark (benchmark/README.md).
//
// Usage:
//
//	smacs-bench -all             # everything (Fig. 9 up to 10^5 requests)
//	smacs-bench -all -smoke      # everything, smaller workloads
//	smacs-bench -table 2         # Tab. II only (also: 3, 4)
//	smacs-bench -figure 8        # Fig. 8 only (also: 9)
//	smacs-bench -tools           # § VI-B runtime-verification throughput
//	smacs-bench -baseline        # E7 on-chain whitelist baseline
//	smacs-bench -missrate        # § IV-C bitmap-size vs miss-rate tradeoff
//	smacs-bench -mode e2e        # end-to-end scenarios (HTTP TS → clients → chain)
//	smacs-bench -mode e2e -scenario adversarial -smoke
//	smacs-bench -mode e2e -scenario durable -smoke       # crash + WAL recovery mid-run
//	smacs-bench -mode e2e -smoke -envelope out/e2e-envelope.json   # CI gate
//	smacs-bench -mode e2e -smoke -csv out/e2e.csv -trace out/trace.json
//
// Flag combinations are validated up front: an unknown -mode or
// -scenario entry, an e2e-only flag outside -mode e2e, or a table or
// figure flag under it, exits with status 2 and a usage message instead
// of being silently ignored.
//
// Interrupting an e2e run (SIGINT/SIGTERM) flushes every completed
// scenario row as a valid partial table/JSON — and partial CSV when -csv
// is set — before exiting with status 130, so a long run never discards
// finished scenarios.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"

	"repro/internal/bench"
	"repro/internal/metrics"
)

// The flags are package-level so the test binary registers them too:
// TestDocsNameOnlyRealFlags checks the docs against flag.CommandLine.
var (
	table    = flag.Int("table", 0, "regenerate one table (2, 3, or 4)")
	figure   = flag.Int("figure", 0, "regenerate one figure (8 or 9)")
	tools    = flag.Bool("tools", false, "regenerate the § VI-B tool measurements")
	baseline = flag.Bool("baseline", false, "run the on-chain whitelist baseline (E7)")
	missrate = flag.Bool("missrate", false, "run the § IV-C bitmap-size vs miss-rate tradeoff")
	all      = flag.Bool("all", false, "regenerate everything")
	smoke    = flag.Bool("smoke", false, "small sizing: Fig. 9 to 10^3 and baseline to 1000, or under -mode e2e the deterministic scale the CI envelope pins")
	asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of the paper-layout tables")

	mode          = flag.String("mode", "", `"e2e" runs the end-to-end scenario harness (default: the paper's tables and figures)`)
	scenario      = flag.String("scenario", "", "e2e: comma-separated subset of "+strings.Join(bench.ScenarioNames(), ",")+` (or "all", the default)`)
	envelopePath  = flag.String("envelope", "", "e2e: compare correctness counts against this envelope JSON and fail on drift")
	writeEnvelope = flag.String("write-envelope", "", "e2e: write the run's correctness counts as an envelope JSON to this path")
	dirPath       = flag.String("dir", "", "e2e: directory for the scenarios' stores, one subdirectory per scenario: the durable scenario's WALs and snapshots, the replica WALs of quorum-backed scenarios (empty: a temp dir)")
	csvPath       = flag.String("csv", "", "e2e: also write the scenario rows as CSV to this path")
	tracePath     = flag.String("trace", "", "e2e: write sampled per-operation stage traces (token round-trip → batch → commit) as JSON to this path")
)

func main() {
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := validateSelection(*mode, *scenario, set); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-bench:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *mode == "e2e" {
		// A SIGINT (or SIGTERM) mid-run flushes every completed row as a
		// valid partial table/JSON/CSV before exiting, instead of
		// discarding minutes of finished scenarios.
		flusher := &partialFlusher{csvPath: *csvPath, asJSON: *asJSON}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			flusher.flush()
			os.Exit(130)
		}()

		if err := runE2E(*scenario, *smoke, *envelopePath, *writeEnvelope,
			*dirPath, *csvPath, *tracePath, *asJSON, flusher); err != nil {
			fmt.Fprintln(os.Stderr, "smacs-bench:", err)
			os.Exit(1)
		}
		return
	}

	if !*all && *table == 0 && *figure == 0 && !*tools && !*baseline && !*missrate {
		*all = true
	}
	if err := run(*table, *figure, *tools, *baseline, *missrate, *all, *smoke, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-bench:", err)
		os.Exit(1)
	}
}

// The flags only one of the two jobs reads; -smoke and -json serve both.
var (
	e2eOnly   = []string{"scenario", "envelope", "write-envelope", "dir", "csv", "trace"}
	paperOnly = []string{"table", "figure", "tools", "baseline", "missrate", "all"}
)

// validateSelection rejects inconsistent flag combinations before any
// measurement runs: an unknown -mode or -scenario entry, an e2e-only
// flag outside -mode e2e, and a table or figure flag under it. set names
// the flags given on the command line. Catching these up front means a
// typo exits with a usage message instead of being silently ignored.
func validateSelection(mode, scenario string, set []string) error {
	switch mode {
	case "", "e2e":
	default:
		return fmt.Errorf("unknown -mode %q (supported: e2e)", mode)
	}
	for _, name := range set {
		switch {
		case mode != "e2e" && slices.Contains(e2eOnly, name):
			return fmt.Errorf("-%s requires -mode e2e", name)
		case mode == "e2e" && slices.Contains(paperOnly, name):
			return fmt.Errorf("-%s selects a paper table or figure and does not apply to -mode e2e", name)
		}
	}
	if mode != "e2e" {
		return nil
	}
	if scenario != "all" {
		supported := bench.ScenarioNames()
		for _, entry := range splitList(scenario) {
			if !slices.Contains(supported, entry) {
				return fmt.Errorf("unknown -scenario entry %q (supported: %s)",
					entry, strings.Join(supported, ", "))
			}
		}
	}
	return nil
}

func splitList(list string) []string {
	var out []string
	for _, m := range strings.Split(list, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// partialFlusher holds a snapshot of the completed scenario rows so the
// signal handler can emit a valid partial result — table or JSON, plus
// the -csv file — when the process is interrupted mid-run. runE2E updates
// it from E2EConfig.OnRow; set copies nothing (each snapshot is freshly
// built by the caller), it only swaps the pointer under the mutex the
// handler reads through.
type partialFlusher struct {
	mu      sync.Mutex
	res     *bench.E2EResult
	csvPath string
	asJSON  bool
}

func (p *partialFlusher) set(res *bench.E2EResult) {
	p.mu.Lock()
	p.res = res
	p.mu.Unlock()
}

func (p *partialFlusher) flush() {
	p.mu.Lock()
	res := p.res
	p.mu.Unlock()
	if res == nil {
		fmt.Fprintln(os.Stderr, "smacs-bench: interrupted before any scenario row completed")
		return
	}
	fmt.Fprintln(os.Stderr, "smacs-bench: interrupted; flushing completed rows")
	if err := emitE2E(res, p.csvPath, p.asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "smacs-bench:", err)
	}
}

// emitE2E prints a run (table or JSON) and optionally writes its CSV.
func emitE2E(res *bench.E2EResult, csvPath string, asJSON bool) error {
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

// runE2E drives the end-to-end scenario harness and, when asked, writes
// or checks the correctness-count envelope. An envelope mismatch is an
// error, so CI fails the build on functional drift in the full pipeline.
func runE2E(scenario string, smoke bool, envelopePath, writeEnvelope, dir, csvPath, tracePath string, asJSON bool, flusher *partialFlusher) error {
	if scenario == "all" {
		scenario = ""
	}
	cfg := bench.E2EConfig{
		Scenarios: splitList(scenario),
		Smoke:     smoke,
		Dir:       dir,
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
	if err := emitE2E(res, csvPath, asJSON); err != nil {
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

func run(table, figure int, tools, baseline, missrate, all, smoke, asJSON bool) error {
	type job struct {
		enabled bool
		run     func() (interface{ Format() string }, error)
	}
	fig9Exp := 5
	baselineSizes := []int{100, 1000, 7473, 10000}
	toolReqs := 100
	missTokens := 2000
	if smoke {
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
