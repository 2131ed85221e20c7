package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// runValidate generates no load: it checks that BENCHMARK.json and the
// driver agree on every workload and metric, and that the measuring stick
// imports nothing that may move with the thing measured. root is the
// checkout root, which run.sh makes the working directory.
func runValidate(root string) error {
	b, err := loadBenchmarkJSON(root)
	if err != nil {
		return err
	}
	problems := append(diffSpec(b), forbiddenImports(filepath.Join(root, "benchmark"))...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "validate:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	fmt.Printf("ok: %d workloads, %d end-to-end and %d per-layer metrics agree with BENCHMARK.json; no forbidden import\n",
		len(workloads), len(declared(endToEnd)), len(perLayer))
	return nil
}

// diffSpec lists every disagreement between BENCHMARK.json and spec.go.
func diffSpec(b *benchmarkJSON) []string {
	var out []string
	if len(b.Workloads) != len(workloads) {
		out = append(out, fmt.Sprintf("BENCHMARK.json has %d workloads, the driver %d", len(b.Workloads), len(workloads)))
	}
	for i := 0; i < min(len(b.Workloads), len(workloads)); i++ {
		if b.Workloads[i].Name != workloads[i].Name || b.Workloads[i].Why != workloads[i].Why {
			out = append(out, fmt.Sprintf("workload %d: BENCHMARK.json says %q (%q), the driver %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, workloads[i].Name, workloads[i].Why))
		}
	}
	metrics := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			out = append(out, fmt.Sprintf("BENCHMARK.json has %d %s metrics, the driver %d", len(got), kind, len(want)))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				out = append(out, fmt.Sprintf("%s metric %d: BENCHMARK.json says %s [%s, %s], the driver %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better))
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound):
				out = append(out, fmt.Sprintf("%s: bound in BENCHMARK.json differs from the driver's %g", w.Name, w.Bound))
			case !bounded && g.Bound != nil:
				out = append(out, fmt.Sprintf("%s: a per-layer metric has no bound", w.Name))
			}
		}
	}
	if b.RunSeconds != defaultSeconds {
		out = append(out, fmt.Sprintf("run_seconds is %d in BENCHMARK.json, the driver's default -seconds is %d", b.RunSeconds, defaultSeconds))
	}
	metrics("end-to-end", b.EndToEnd, declared(endToEnd), true)
	metrics("per-layer", b.PerLayer, perLayer, false)
	return out
}

// forbiddenImports parses every Go file under dir and reports imports of
// repro/internal/bench or repro/cmd/...: ROADMAP item 3 will shrink those,
// and the benchmark must not change with them.
func forbiddenImports(dir string) []string {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "repro/internal/bench" || strings.HasPrefix(p, "repro/internal/bench/") || strings.HasPrefix(p, "repro/cmd/") {
				out = append(out, fmt.Sprintf("%s imports %s", path, p))
			}
		}
		return nil
	})
	if err != nil {
		out = append(out, errors.Join(errors.New("scan imports"), err).Error())
	}
	return out
}
