package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/doccheck"
)

// TestMain lets this test binary impersonate the smacs-bench CLI: when
// SMACS_BENCH_BE_MAIN is set, it rewrites os.Args from SMACS_BENCH_ARGS
// and runs main() instead of the tests. The tests below re-exec
// themselves through this hook, so the real signal handler and exit
// statuses are exercised in a real child process without a separate go
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("SMACS_BENCH_BE_MAIN") == "1" {
		os.Args = append([]string{"smacs-bench"}, strings.Fields(os.Getenv("SMACS_BENCH_ARGS"))...)
		main()
		return
	}
	os.Exit(m.Run())
}

// mainCmd is this test binary re-exec'd as the smacs-bench CLI (see
// TestMain) with the given command line.
func mainCmd(args string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SMACS_BENCH_BE_MAIN=1", "SMACS_BENCH_ARGS="+args)
	return cmd
}

// runMain runs smacs-bench to completion and returns its exit code and
// combined output.
func runMain(t *testing.T, args string) (int, string) {
	t.Helper()
	out, err := mainCmd(args).CombinedOutput()
	if exitErr, ok := err.(*exec.ExitError); ok {
		return exitErr.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("smacs-bench %s: %v", args, err)
	}
	return 0, string(out)
}

// A SIGINT mid-run must exit with status 130 AND leave a valid partial
// CSV behind — the regression was an interrupt discarding every completed
// row. The child runs every scenario at full scale with quickstart first
// and durable second; durable creates its store directories under
// <dir>/durable as it starts, so their appearance means the quickstart
// row is complete and ten scenarios are still to run.
func TestSIGINTFlushesPartialResults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a multi-second child run")
	}
	tmp := t.TempDir()
	csvPath := filepath.Join(tmp, "partial.csv")
	storeDir := filepath.Join(tmp, "stores")
	order := []string{"quickstart", "durable"}
	for _, name := range bench.ScenarioNames() {
		if name != "quickstart" && name != "durable" {
			order = append(order, name)
		}
	}
	cmd := mainCmd("-mode e2e -scenario " + strings.Join(order, ",") + " -dir " + storeDir + " -csv " + csvPath)
	var output strings.Builder
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(2 * time.Minute)
	for {
		if _, err := os.Stat(filepath.Join(storeDir, "durable", "ts")); err == nil {
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("child exited before the durable scenario started (err=%v); output:\n%s", err, output.String())
		case <-deadline:
			_ = cmd.Process.Kill()
			<-exited
			t.Fatalf("durable scenario never started; output:\n%s", output.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signal: %v", err)
	}
	err := <-exited
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("child did not exit with an error status (err=%v); output:\n%s", err, output.String())
	}
	if code := exitErr.ExitCode(); code != 130 {
		t.Fatalf("exit code %d, want 130; output:\n%s", code, output.String())
	}
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("interrupt flushed no CSV: %v; output:\n%s", err, output.String())
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("partial CSV has %d lines, want header plus ≥1 completed row:\n%s", len(lines), raw)
	}
	if len(lines) > len(order) {
		t.Fatalf("partial CSV has %d lines: the run finished before the interrupt landed", len(lines))
	}
	if !strings.HasPrefix(lines[0], "scenario,clients") {
		t.Fatalf("partial CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "quickstart,") {
		t.Errorf("first partial CSV row = %q, want the quickstart scenario", lines[1])
	}
	for _, line := range lines[1:] {
		if cells := strings.Split(line, ","); len(cells) != len(strings.Split(lines[0], ",")) {
			t.Fatalf("ragged partial CSV row %q", line)
		}
	}
	if !strings.Contains(output.String(), "flushing completed rows") {
		t.Errorf("child did not announce the partial flush; output:\n%s", output.String())
	}
}

// Flag combinations must be rejected up front — an unknown mode or
// scenario, an e2e-only flag outside -mode e2e, or a table or figure
// flag under it, exits with a usage message instead of being silently
// ignored. -smoke sizes both jobs.
func TestValidateSelection(t *testing.T) {
	tests := []struct {
		name     string
		mode     string
		scenario string
		set      []string // the flags given, besides -mode
		wantErr  string   // "" = valid
	}{
		{name: "paper tables", mode: ""},
		{name: "e2e defaults", mode: "e2e"},
		{name: "e2e all", mode: "e2e", scenario: "all", set: []string{"scenario", "smoke"}},
		{name: "e2e subset", mode: "e2e", scenario: "adversarial,mixed", set: []string{"scenario", "smoke", "envelope"}},
		{name: "e2e durable dir", mode: "e2e", scenario: "durable", set: []string{"scenario", "smoke", "dir"}},
		{name: "e2e trace", mode: "e2e", set: []string{"smoke", "trace"}},
		{name: "e2e csv", mode: "e2e", set: []string{"smoke", "csv"}},
		{name: "smoke outside e2e", set: []string{"all", "smoke"}},
		{name: "json either way", mode: "e2e", set: []string{"json"}},

		{name: "unknown mode", mode: "warp", wantErr: `unknown -mode "warp"`},
		{name: "unknown chain mode", mode: "chain", wantErr: `unknown -mode "chain"`},
		{name: "load mode removed", mode: "load", wantErr: `unknown -mode "load"`},
		{name: "shard mode removed", mode: "shard", wantErr: `unknown -mode "shard"`},
		{name: "unknown scenario", mode: "e2e", scenario: "bogus", set: []string{"scenario"}, wantErr: `unknown -scenario entry "bogus"`},

		{name: "scenario outside e2e", scenario: "mixed", set: []string{"scenario"}, wantErr: "-scenario requires -mode e2e"},
		{name: "scenario all outside e2e", scenario: "all", set: []string{"scenario"}, wantErr: "-scenario requires -mode e2e"},
		{name: "envelope outside e2e", set: []string{"envelope"}, wantErr: "-envelope requires -mode e2e"},
		{name: "write-envelope outside e2e", set: []string{"write-envelope"}, wantErr: "-write-envelope requires -mode e2e"},
		{name: "dir outside e2e", set: []string{"dir"}, wantErr: "-dir requires -mode e2e"},
		{name: "csv outside e2e", set: []string{"csv"}, wantErr: "-csv requires -mode e2e"},
		{name: "trace outside e2e", set: []string{"trace"}, wantErr: "-trace requires -mode e2e"},

		{name: "table under e2e", mode: "e2e", set: []string{"table"}, wantErr: "-table selects a paper table"},
		{name: "figure under e2e", mode: "e2e", set: []string{"smoke", "figure"}, wantErr: "-figure selects a paper table"},
		{name: "tools under e2e", mode: "e2e", set: []string{"tools"}, wantErr: "-tools selects a paper table"},
		{name: "baseline under e2e", mode: "e2e", set: []string{"baseline"}, wantErr: "-baseline selects a paper table"},
		{name: "missrate under e2e", mode: "e2e", set: []string{"missrate"}, wantErr: "-missrate selects a paper table"},
		{name: "all flag under e2e", mode: "e2e", set: []string{"all"}, wantErr: "-all selects a paper table"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateSelection(tt.mode, tt.scenario, tt.set)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

// What validateSelection (or the flag package, for a flag that no longer
// exists) rejects must reach the user as exit status 2 plus the usage
// text, and must not start a run.
func TestRejectedSelectionExitsWithUsage(t *testing.T) {
	for _, args := range []string{
		"-mode=load",
		"-mode=shard",
		"-table 2 -csv " + filepath.Join(t.TempDir(), "x.csv"),
		"-mode e2e -smoke -all",
		"-workers 2",
		"-all -quick",
	} {
		code, out := runMain(t, args)
		if code != 2 {
			t.Errorf("smacs-bench %s: exit code %d, want 2; output:\n%s", args, code, out)
		}
		if !strings.Contains(out, "-write-envelope") {
			t.Errorf("smacs-bench %s: no usage text; output:\n%s", args, out)
		}
	}
}

// The docs, the CI workflow and the verify skill may only name flags the
// binary registers and -mode values it accepts: a deleted flag left in a
// document is a command the reader cannot run.
func TestDocsNameOnlyRealFlags(t *testing.T) {
	mode := func(name, value string) error {
		if name != "mode" {
			return nil
		}
		return validateSelection(value, "", nil)
	}
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
		if len(doccheck.Invocations(string(raw), "smacs-bench")) == 0 {
			t.Errorf("%s: no smacs-bench invocation found", path)
		}
		for _, err := range doccheck.Check(string(raw), "smacs-bench", flag.CommandLine, mode) {
			t.Errorf("%s: %v", path, err)
		}
	}
}
