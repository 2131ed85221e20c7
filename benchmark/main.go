// Command benchmark is the repo's measuring stick: five seeded workloads
// over stacks built from the layers' exported constructors, six end-to-end
// metrics with fixed regression bounds, and a traced mode that attributes
// one guarded transaction's time to each layer. See README.md.
//
//	bash benchmark/run.sh                                  # every workload, untraced then traced
//	bash benchmark/run.sh --workload exec-hot --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh -validate
//	bash benchmark/run.sh -compare A/results.json B/results.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

const defaultSeed = 1

func main() {
	var (
		opt      options
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		out      = flag.String("out", "", "directory for WALs, results and traces (default: a fresh temp dir, removed on success)")
		runs     = flag.Int("runs", 1, "with no -workload: how many times to run every workload")
		validate = flag.Bool("validate", false, "check BENCHMARK.json against the driver's own tables and the import rules, run nothing")
		compare  = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run in this process (default: all, each in its own process)")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed of the input generator; the stacks under test never see it")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "length of the measured interval")
	flag.BoolVar(&opt.smoke, "smoke", false, "~1 s run on 512 wallets: same code path, numbers not for comparison")
	flag.Parse()

	switch {
	case *validate:
		exit(runValidate("."))
	case *compare:
		if flag.NArg() != 2 {
			exit(errors.New("usage: -compare A.json B.json"))
		}
		worse, err := runCompare(".", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err == nil && worse {
			os.Exit(1)
		}
		exit(err)
	}
	if opt.smoke {
		opt.seconds = 1
	}
	if opt.seconds <= 0 || *runs < 1 {
		exit(errors.New("-seconds and -runs must be positive"))
	}
	opt.trace = *trace != 0

	dir, keep, err := outDir(*out)
	if err != nil {
		exit(err)
	}
	opt.dir, opt.keep = dir, keep
	// An interrupt must not leave WAL directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if !keep {
			_ = os.RemoveAll(dir)
		}
		os.Exit(130)
	}()

	if opt.workload != "" {
		err = single(opt)
	} else {
		err = all(opt, *runs)
	}
	if err == nil && !keep {
		err = os.RemoveAll(dir)
	}
	exit(err)
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// outDir resolves -out. Unnamed, it is a fresh temp dir that the run
// removes; run.sh points TMPDIR into the checkout's build directory.
func outDir(named string) (dir string, keep bool, err error) {
	if named != "" {
		return named, true, os.MkdirAll(named, 0o755)
	}
	dir, err = os.MkdirTemp("", "smacs-benchmark-")
	return dir, false, err
}

// single runs one workload in this process and prints its result.
func single(opt options) error {
	res, err := runOne(opt)
	if err != nil {
		return err
	}
	if opt.keep {
		if err := writeJSON(filepath.Join(opt.dir, "result.json"), res); err != nil {
			return err
		}
	}
	return printResult(res)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// resultsFile is what a run of every workload leaves in -out and what
// -compare reads.
type resultsFile struct {
	Meta map[string]any `json:"meta"`
	Runs []*runResult   `json:"runs"`
}

func meta(opt options) map[string]any {
	m := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"git_sha": "unknown", "seed": opt.seed, "seconds": opt.seconds, "time": time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m["git_sha"] = s.Value
			}
		}
	}
	return m
}

// all runs every workload, untraced then traced, each run in its own
// process: the sender and token-signer caches are process globals.
func all(opt options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Meta: meta(opt)}
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				dir := filepath.Join(opt.dir, fmt.Sprintf("%s-run%d-trace%d", w.Name, run, trace))
				args := []string{"-workload", w.Name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
					"-trace", fmt.Sprint(trace), "-out", dir}
				if opt.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
				}
				raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
				if err != nil {
					return err
				}
				var res runResult
				if err := json.Unmarshal(raw, &res); err != nil {
					return err
				}
				file.Runs = append(file.Runs, &res)
				if !opt.keep {
					// Nobody will read the WALs of an unnamed directory.
					if err := os.RemoveAll(dir); err != nil {
						return err
					}
				}
			}
		}
	}
	if opt.keep {
		path := filepath.Join(opt.dir, "results.json")
		if err := writeJSON(path, file); err != nil {
			return err
		}
		fmt.Println("results:", path)
	}
	return nil
}
