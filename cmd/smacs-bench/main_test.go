package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/doccheck"
)

// TestMain lets this test binary impersonate the smacs-bench CLI: when
// SMACS_BENCH_BE_MAIN is set, it rewrites os.Args from SMACS_BENCH_ARGS
// and runs main() instead of the tests. The tests below re-exec
// themselves through this hook, so the real exit statuses are exercised
// in a real child process without a separate go build step.
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

// Flag combinations must be rejected up front — an unknown mode or
// scenario, an e2e-only flag outside -mode e2e, or a paper flag under
// it, exits with a usage message instead of being silently ignored.
// -smoke sizes the paper's workloads only.
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
		{name: "e2e all", mode: "e2e", scenario: "all", set: []string{"scenario"}},
		{name: "e2e subset", mode: "e2e", scenario: "adversarial,mixed", set: []string{"scenario", "envelope"}},
		{name: "e2e durable dir", mode: "e2e", scenario: "durable", set: []string{"scenario", "dir"}},
		{name: "smoke outside e2e", set: []string{"smoke"}},
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

		{name: "table under e2e", mode: "e2e", set: []string{"table"}, wantErr: "-table applies only to the paper's"},
		{name: "figure under e2e", mode: "e2e", set: []string{"figure"}, wantErr: "-figure applies only to the paper's"},
		{name: "tools under e2e", mode: "e2e", set: []string{"tools"}, wantErr: "-tools applies only to the paper's"},
		{name: "baseline under e2e", mode: "e2e", set: []string{"baseline"}, wantErr: "-baseline applies only to the paper's"},
		{name: "missrate under e2e", mode: "e2e", set: []string{"missrate"}, wantErr: "-missrate applies only to the paper's"},
		{name: "smoke under e2e", mode: "e2e", set: []string{"smoke"}, wantErr: "-smoke applies only to the paper's"},
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
		"-table 2 -dir " + t.TempDir(),
		"-mode e2e -smoke",
		"-mode e2e -csv x.csv",
		"-trace t.json",
		"-all",
		"-workers 2",
		"-quick",
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
// binary registers, -mode values it accepts and flag combinations
// validateSelection allows: a deleted flag left in a document, or a
// paper flag shown under -mode e2e, is a command the reader cannot run.
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
		for _, words := range doccheck.Invocations(string(raw), "smacs-bench") {
			if err := validateSelection(selectionOf(words)); err != nil {
				t.Errorf("%s: smacs-bench %s: %v", path, strings.Join(words, " "), err)
			}
		}
	}
}

// selectionOf reads the -mode and -scenario values and the names of the
// flags given in one documented command line.
func selectionOf(words []string) (mode, scenario string, set []string) {
	for i, word := range words {
		if !strings.HasPrefix(word, "-") {
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(word, "-"), "=")
		if !hasValue && i+1 < len(words) {
			value = words[i+1]
		}
		switch name {
		case "mode":
			mode = value
		case "scenario":
			scenario = value
		}
		set = append(set, name)
	}
	return mode, scenario, set
}
