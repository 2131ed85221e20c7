// Command smacs-bench regenerates the paper's evaluation tables and
// figures (§ VI) and prints them in the paper's layout, and runs the
// end-to-end scenario harness whose exact accept/reject counts CI pins
// against out/e2e-envelope.json. Performance numbers are not its job:
// those come from the repo benchmark (benchmark/README.md).
//
// Usage:
//
//	smacs-bench                  # every table and figure (Fig. 9 up to 10^5 requests)
//	smacs-bench -smoke           # every table and figure, smaller workloads
//	smacs-bench -table 2         # Tab. II only (also: 3, 4)
//	smacs-bench -figure 8        # Fig. 8 only (also: 9)
//	smacs-bench -tools           # § VI-B runtime-verification throughput
//	smacs-bench -baseline        # E7 on-chain whitelist baseline
//	smacs-bench -missrate        # § IV-C bitmap-size vs miss-rate tradeoff
//	smacs-bench -mode e2e        # end-to-end scenarios (HTTP TS → clients → chain)
//	smacs-bench -mode e2e -scenario adversarial
//	smacs-bench -mode e2e -scenario durable              # crash + WAL recovery mid-run
//	smacs-bench -mode e2e -envelope out/e2e-envelope.json   # CI gate
//
// Flag combinations are validated up front: an unknown -mode or
// -scenario entry, an e2e-only flag outside -mode e2e, or a paper flag
// (a table or figure selection, or -smoke) under it, exits with status 2
// and a usage message instead of being silently ignored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
)

// The flags are package-level so the test binary registers them too:
// TestDocsNameOnlyRealFlags checks the docs against flag.CommandLine.
var (
	table    = flag.Int("table", 0, "regenerate one table (2, 3, or 4)")
	figure   = flag.Int("figure", 0, "regenerate one figure (8 or 9)")
	tools    = flag.Bool("tools", false, "regenerate the § VI-B tool measurements")
	baseline = flag.Bool("baseline", false, "run the on-chain whitelist baseline (E7)")
	missrate = flag.Bool("missrate", false, "run the § IV-C bitmap-size vs miss-rate tradeoff")
	smoke    = flag.Bool("smoke", false, "small sizing of the paper's workloads: Fig. 9 to 10^3 requests, baseline to 1000 entries")
	asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of the paper-layout tables")

	mode          = flag.String("mode", "", `"e2e" runs the end-to-end scenario harness (default: the paper's tables and figures)`)
	scenario      = flag.String("scenario", "", "e2e: comma-separated subset of "+strings.Join(bench.ScenarioNames(), ",")+` (or "all", the default)`)
	envelopePath  = flag.String("envelope", "", "e2e: compare correctness counts against this envelope JSON and fail on drift")
	writeEnvelope = flag.String("write-envelope", "", "e2e: write the run's correctness counts as an envelope JSON to this path")
	dirPath       = flag.String("dir", "", "e2e: directory for the scenarios' stores, one subdirectory per scenario: the durable scenario's WALs and snapshots, the replica WALs of quorum-backed scenarios (empty: a temp dir)")
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

	var err error
	if *mode == "e2e" {
		err = runE2E(*scenario, *envelopePath, *writeEnvelope, *dirPath, *asJSON)
	} else {
		err = run(*table, *figure, *tools, *baseline, *missrate, *smoke, *asJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smacs-bench:", err)
		os.Exit(1)
	}
}

// The flags only one of the two jobs reads; -json serves both.
var (
	e2eOnly   = []string{"scenario", "envelope", "write-envelope", "dir"}
	paperOnly = []string{"table", "figure", "tools", "baseline", "missrate", "smoke"}
)

// validateSelection rejects inconsistent flag combinations before any
// measurement runs: an unknown -mode or -scenario entry, an e2e-only
// flag outside -mode e2e, and a paper flag under it. set names
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
			return fmt.Errorf("-%s applies only to the paper's tables and figures, not to -mode e2e", name)
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

// runE2E drives the end-to-end scenario harness and, when asked, writes
// or checks the correctness-count envelope. An envelope mismatch is an
// error, so CI fails the build on functional drift in the full pipeline.
func runE2E(scenario, envelopePath, writeEnvelope, dir string, asJSON bool) error {
	if scenario == "all" {
		scenario = ""
	}
	res, err := bench.E2E(bench.E2EConfig{Scenarios: splitList(scenario), Dir: dir})
	if err != nil {
		return err
	}
	if err := emit(res, asJSON); err != nil {
		return err
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

// run regenerates the selected paper tables and figures; an empty
// selection runs every one of them.
func run(table, figure int, tools, baseline, missrate, smoke, asJSON bool) error {
	all := table == 0 && figure == 0 && !tools && !baseline && !missrate
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
		if err := emit(res, asJSON); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("nothing selected: table=%d figure=%d", table, figure)
	}
	return nil
}

// emit prints one result, as JSON or in its paper layout.
func emit(res interface{ Format() string }, asJSON bool) error {
	if !asJSON {
		fmt.Println(res.Format())
		return nil
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}
