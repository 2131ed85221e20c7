package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestMain lets this test binary impersonate the smacs-bench CLI: when
// SMACS_BENCH_BE_MAIN is set, it rewrites os.Args from SMACS_BENCH_ARGS
// and runs main() instead of the tests. The SIGINT test below re-execs
// itself through this hook, so the real signal handler is exercised in a
// real child process without a separate go build step.
func TestMain(m *testing.M) {
	if os.Getenv("SMACS_BENCH_BE_MAIN") == "1" {
		os.Args = append([]string{"smacs-bench"}, strings.Fields(os.Getenv("SMACS_BENCH_ARGS"))...)
		main()
		return
	}
	os.Exit(m.Run())
}

// A SIGINT mid-sweep must exit with status 130 AND leave a valid partial
// CSV behind — the regression was an interrupt discarding every completed
// cell. The child runs a load sweep sized so that at interrupt time some
// cells are finished and some are not.
func TestSIGINTFlushesPartialResults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a multi-second child sweep")
	}
	csvPath := filepath.Join(t.TempDir(), "partial.csv")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"SMACS_BENCH_BE_MAIN=1",
		// 4 modes × 2 worker counts ≈ 8 cells of ~1.1 s each: far from
		// done when the interrupt lands, with several cells completed.
		"SMACS_BENCH_ARGS=-mode load -workers 1,2 -duration 1s -warmup 100ms -rtt 0 -bench-json= -csv "+csvPath,
	)
	var output strings.Builder
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Enough wall clock for ≥2 cells; the sweep needs ~9 s in total.
	time.Sleep(3 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signal: %v", err)
	}
	err := cmd.Wait()
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
	if !strings.HasPrefix(lines[0], "mode,workers") {
		t.Fatalf("partial CSV header = %q", lines[0])
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

// The trajectory artifact must carry the mode, a timestamp, and the full
// sweep result; -bench-json resolution maps "auto" to out/BENCH_<mode>.json
// and "" to no artifact at all.
func TestBenchArtifact(t *testing.T) {
	if got := benchArtifactPath("auto", "e2e"); got != filepath.Join("out", "BENCH_e2e.json") {
		t.Errorf("auto path = %q", got)
	}
	if got := benchArtifactPath("", "load"); got != "" {
		t.Errorf("disabled path = %q", got)
	}
	if got := benchArtifactPath("custom.json", "load"); got != "custom.json" {
		t.Errorf("explicit path = %q", got)
	}
	if err := writeBenchArtifact("", "load", nil); err != nil {
		t.Fatalf("disabled artifact should be a no-op, got %v", err)
	}

	path := filepath.Join(t.TempDir(), "nested", "BENCH_e2e.json")
	res := &bench.E2EResult{Rows: []bench.E2ERow{{Scenario: "quickstart"}}}
	if err := writeBenchArtifact(path, "e2e", res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Mode      string `json:"mode"`
		Timestamp string `json:"timestamp"`
		Result    struct {
			Rows []struct {
				Scenario string `json:"scenario"`
			} `json:"rows"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact is not JSON: %v\n%s", err, raw)
	}
	if art.Mode != "e2e" {
		t.Errorf("mode = %q", art.Mode)
	}
	if _, err := time.Parse(time.RFC3339, art.Timestamp); err != nil {
		t.Errorf("timestamp %q: %v", art.Timestamp, err)
	}
	if len(art.Result.Rows) != 1 || art.Result.Rows[0].Scenario != "quickstart" {
		t.Errorf("result rows = %+v", art.Result.Rows)
	}
}

// Flag combinations must be rejected up front — an unknown scenario or
// sweep-mode entry exits with a usage message instead of being silently
// ignored (or worse, discovered after minutes of completed cells).
func TestValidateSelection(t *testing.T) {
	tests := []struct {
		name       string
		mode       string
		scenario   string
		modes      string
		smoke      bool
		envelope   string
		writeEnv   string
		store      string // "" maps to the "mem" flag default
		dir        string
		fsyncBatch int
		benchJSON  string // "" maps to the "auto" flag default
		trace      string
		wantErr    string // "" = valid
	}{
		{name: "paper tables", mode: ""},
		{name: "load defaults", mode: "load"},
		{name: "load subset", mode: "load", modes: "locked,sharded"},
		{name: "e2e defaults", mode: "e2e"},
		{name: "e2e all", mode: "e2e", scenario: "all", smoke: true},
		{name: "e2e subset", mode: "e2e", scenario: "adversarial,mixed", smoke: true, envelope: "out/e2e-envelope.json"},
		{name: "shard defaults", mode: "shard"},

		{name: "unknown mode", mode: "warp", wantErr: `unknown -mode "warp"`},
		{name: "unknown scenario", mode: "e2e", scenario: "bogus", wantErr: `unknown -scenario entry "bogus"`},
		{name: "scenario outside e2e", mode: "load", scenario: "mixed", wantErr: "-scenario requires -mode e2e"},
		{name: "scenario all outside e2e", mode: "load", scenario: "all", wantErr: "-scenario requires -mode e2e"},
		{name: "smoke outside e2e", mode: "load", smoke: true, wantErr: "-smoke requires -mode e2e"},
		{name: "envelope outside e2e", mode: "", envelope: "x.json", wantErr: "-envelope requires -mode e2e"},
		{name: "write-envelope outside e2e", mode: "load", writeEnv: "x.json", wantErr: "-write-envelope requires -mode e2e"},
		{name: "unknown load mode", mode: "load", modes: "locked,turbo", wantErr: `unknown -modes entry "turbo"`},
		{name: "modes outside load", mode: "shard", modes: "locked", wantErr: "-modes requires -mode load"},
		{name: "unknown chain mode", mode: "chain", wantErr: `unknown -mode "chain"`},

		{name: "load file store", mode: "load", store: "file", dir: "/tmp/w", fsyncBatch: 16},
		{name: "e2e durable dir", mode: "e2e", scenario: "durable", smoke: true, dir: "/tmp/w", fsyncBatch: 128},
		{name: "unknown store", mode: "load", store: "tape", wantErr: `unknown -store "tape"`},
		{name: "file store outside load", mode: "shard", store: "file", wantErr: "-store file requires -mode load"},
		{name: "dir without file store", mode: "load", dir: "/tmp/w", wantErr: "-dir requires -store file or -mode e2e"},
		{name: "fsync-batch without file store", mode: "shard", fsyncBatch: 8, wantErr: "-fsync-batch requires -store file or -mode e2e"},
		{name: "negative fsync-batch", mode: "load", store: "file", fsyncBatch: -1, wantErr: "-fsync-batch must be ≥ 0"},

		{name: "e2e trace", mode: "e2e", smoke: true, trace: "out/trace.json"},
		{name: "trace outside e2e", mode: "load", trace: "out/trace.json", wantErr: "-trace requires -mode e2e"},
		{name: "bench-json auto in paper mode", mode: ""}, // default degrades silently
		{name: "explicit bench-json", mode: "shard", benchJSON: "out/BENCH_shard.json"},
		{name: "bench-json outside sweep modes", mode: "", benchJSON: "x.json", wantErr: "-bench-json requires -mode"},
		{name: "smoke outside e2e (shard)", mode: "shard", smoke: true, wantErr: "-smoke requires -mode e2e"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			store := tt.store
			if store == "" {
				store = "mem"
			}
			benchJSON := tt.benchJSON
			if benchJSON == "" {
				benchJSON = "auto"
			}
			err := validateSelection(tt.mode, tt.scenario, tt.modes, tt.smoke, tt.envelope, tt.writeEnv, store, tt.dir, tt.fsyncBatch, benchJSON, tt.trace)
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
