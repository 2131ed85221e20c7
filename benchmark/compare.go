package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns Q1, Q2 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver uses for its own spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// allBetter reports whether every value of y reads better than every value
// of x.
func allBetter(m metricSpec, x, y []float64) bool {
	sx, sy := sortedCopy(x), sortedCopy(y)
	if m.Better == "higher" {
		return sy[0] > sx[len(sx)-1]
	}
	return sy[len(sy)-1] < sx[0]
}

// verdict compares the runs of one (metric, workload) cell. change is the
// relative move of the median in the metric's worse direction.
func verdict(m metricSpec, a, b []float64) (change float64, word string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma != 0 {
		change = (mb - ma) / ma
		if m.Better == "higher" {
			change = -change
		}
	}
	spread := max(spreadShare(a), spreadShare(b))
	if len(a) < 2 || len(b) < 2 {
		spread = m.Bound // one run has no spread: call nothing better within the bound
	}
	switch {
	case spread > m.Bound && allBetter(m, a, b):
		return change, "better"
	case spread > m.Bound && allBetter(m, b, a):
		return change, "worse"
	case spread > m.Bound:
		// Wider than the bound: too noisy to call unchanged.
		return change, "unresolved"
	case change > m.Bound:
		return change, "worse"
	case -change > spread && change < 0:
		return change, "better"
	}
	return change, "same"
}

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// cells groups the untraced runs' end-to-end values by workload and metric,
// and sums the failed ops per workload.
func cells(f *resultsFile) (map[string]map[string][]float64, map[string]float64) {
	values := map[string]map[string][]float64{}
	failedShare := map[string]float64{}
	attempted := map[string]float64{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
		failedShare[r.Workload] += float64(r.Failed)
		attempted[r.Workload] += float64(r.Attempted)
	}
	for w := range failedShare {
		failedShare[w] /= max(attempted[w], 1)
	}
	return values, failedShare
}

// runCompare prints one row per (end-to-end metric, workload) cell with
// both medians, the relative change and the verdict under the bounds of
// BENCHMARK.json. It reports whether B regressed: any "worse" cell, or any
// rise in the share of failed ops.
func runCompare(root, pathA, pathB string, w io.Writer) (regressed bool, err error) {
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	va, fa := cells(a)
	vb, fb := cells(b)
	var names []string
	for name := range va {
		if vb[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-14s %4s %14s %14s %9s %8s  %s\n", "workload", "metric", "runs", "median A", "median B", "change", "bound", "verdict")
	for _, wl := range names {
		for _, jm := range bj.EndToEnd {
			m := metricSpec{Name: jm.Name, Unit: jm.Unit, Better: jm.Better}
			if jm.Bound != nil {
				m.Bound = *jm.Bound
			}
			xa, xb := va[wl][m.Name], vb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			change, word := verdict(m, xa, xb)
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Fprintf(w, "%-14s %-14s %2d/%-2d %14.4f %14.4f %+8.2f%% %7.0f%%  %s\n",
				wl, m.Name, len(xa), len(xb), ma, mb, change*100, m.Bound*100, word)
			regressed = regressed || word == "worse"
		}
		word := "same"
		if fb[wl] > fa[wl] {
			word, regressed = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-14s       %14.6f %14.6f %9s %8s  %s\n", wl, "failed_share", fa[wl], fb[wl], "", "+0", word)
	}
	return regressed, nil
}
