package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// workload is one row of the workload table, as the driver runs it.
type workload interface {
	// build assembles the stack under dir and prepares the inputs.
	build(rc *runCtx, dir string) error
	// warmup runs unmeasured ops through the same code path.
	warmup(rc *runCtx) error
	// measure runs the measured interval.
	measure(rc *runCtx) error
	// check compares every output with what the inputs demand and sets
	// rc.attempted and rc.failed. An error means an output check failed.
	check(rc *runCtx) error
	// layers reports the per-layer metrics of a traced run.
	layers(rc *runCtx, put func(name string, v float64)) error
	close() error
}

// runCtx is what one run of one workload shares with its workload.
type runCtx struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	smoke   bool
	workers int
	wallets int
	// replayN is how many captured inputs a replay-pass measurement covers.
	replayN int
	g       *gen
	ws      *walletSet
	tr      *tracer // nil in an untraced run
	m       *meter
	// reg is the registry the current build passes through the layers'
	// public Metrics fields; before and after are its readings around the
	// measured interval.
	reg           *metrics.Registry
	before, after map[string]float64

	attempted, failed int64
	// lat holds the latency in ms of every measured op that ran its whole
	// path; lateness and backlog are filled by the open loop only.
	lat        []float64
	withinLim  int64
	latenessMs []float64
	backlogMax [2]int64 // first and second half of the measured interval
	notes      map[string]any
}

// warmupDone reports whether a warm-up that began at start and completed
// ops operations is over.
func (rc *runCtx) warmupDone(start time.Time, ops int64) bool {
	limit, maxT := int64(warmupOps), time.Duration(warmupMax)*time.Second
	if rc.smoke {
		limit, maxT = 128, 200*time.Millisecond
	}
	return ops >= limit || time.Since(start) >= maxT
}

// delta reads how much a registry series grew over the measured interval.
func (rc *runCtx) delta(series string) float64 { return rc.after[series] - rc.before[series] }

// scrape reads every series of a registry through its Prometheus text
// rendering: counters, counter funcs and histogram sums alike, keyed by
// the series as printed ("name" or "name{labels}").
func scrape(reg *metrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. The first four fields are the
// driver's contract; the rest is context for people.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	// Bypassed lists the per-layer metrics of layers this workload does
	// not exercise. They are absent from Layers; the contract line prints
	// them as 0 because the driver wants every declared name.
	Bypassed []string           `json:"bypassed,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Notes    map[string]any     `json:"notes,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	// dir is where WALs, the trace and the result go.
	dir string
	// keep says the caller named dir and wants the trace and result files.
	keep bool
}

// runOne runs one workload once in this process.
func runOne(opt options) (*runResult, error) {
	spec := findWorkload(opt.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	rc := &runCtx{
		spec: spec, seed: opt.seed, seconds: opt.seconds, smoke: opt.smoke,
		workers: runtime.NumCPU(), wallets: numWallets, replayN: replayInputs,
		notes: map[string]any{},
	}
	if opt.smoke {
		rc.wallets, rc.replayN = 512, smokeReplayInputs
	}
	rc.g = newGen(opt.seed, rc.wallets)
	rc.ws = deriveWallets(rc.wallets)
	if opt.trace {
		rc.tr = newTracer()
	}
	rc.m = &meter{tr: rc.tr}

	w := spec.New()
	rc.reg = metrics.NewRegistry()
	defer w.close()
	if err := w.build(rc, opt.dir); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	rc.notes["built_s"] = time.Since(processStart).Seconds()
	if err := w.warmup(rc); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setup := time.Since(processStart).Seconds()

	boxBefore := boxSpeedMs()
	rc.before = scrape(rc.reg)
	if err := w.measure(rc); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	rc.after = scrape(rc.reg)
	rc.notes["box_speed_ms"] = [2]float64{boxBefore, boxSpeedMs()}
	rc.tr.set(false)

	if err := w.check(rc); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	if rc.attempted < 1 {
		return nil, fmt.Errorf("no op was attempted")
	}

	res := &runResult{
		Correct: true, Attempted: rc.attempted, Failed: rc.failed,
		Metrics:  map[string]metricValue{},
		Workload: spec.Name, Seed: opt.seed, Seconds: opt.seconds, Notes: rc.notes,
	}
	sorted := sortedCopy(rc.lat)
	rc.notes["latency_samples"] = len(sorted)
	if !opt.trace {
		r := rc.m.ratesOf(false)
		rc.notes["slices"] = len(r.sliceOps)
		rc.notes["slice_ops_per_s"], rc.notes["slice_cpu_ms_per_op"] = r.sliceOps, r.sliceCPU
		rc.notes["measured_ops"] = r.ops
		rc.notes["measured_wall_s"] = r.wall.Seconds()
		values := map[string]float64{
			"ops_per_s": r.opsPerS, "op_p50_ms": percentile(sorted, 0.5),
			"cpu_ms_per_op": r.cpuMsPerOp, "allocs_per_op": r.allocsPerOp, "setup_s": setup,
			"failed_share": float64(rc.failed) / float64(rc.attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
		return res, nil
	}

	res.Trace = 1
	res.Layers = map[string]float64{}
	put := func(name string, v float64) { res.Layers[name] = v }
	driverLayer(rc, sorted, put)
	if err := w.layers(rc, put); err != nil {
		return nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	for _, m := range perLayer {
		v, ok := res.Layers[m.Name]
		if !ok {
			res.Bypassed = append(res.Bypassed, m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for name := range res.Layers {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload reported undeclared metric %q", name)
		}
	}
	if opt.keep {
		if err := rc.tr.dump(filepath.Join(opt.dir, "trace.json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// driverLayer reports what the load generator itself observes.
func driverLayer(rc *runCtx, sorted []float64, put func(string, float64)) {
	put("driver.op_p90_ms", percentile(sorted, 0.9))
	put("driver.op_p99_ms", percentile(sorted, 0.99))
	put("driver.within_limit_share", float64(rc.withinLim)/float64(rc.attempted))
	put("driver.peak_rss_mb", peakRSSMB())
	rc.notes["traced_slices"], rc.notes["untraced_slices"] = len(rc.m.ratesOf(true).sliceOps), len(rc.m.ratesOf(false).sliceOps)
	if overhead, ok := rc.m.traceOverhead(len(rc.latenessMs) > 0); ok {
		put("driver.trace_overhead_share", overhead)
	}
	if len(rc.latenessMs) > 0 {
		put("driver.lateness_p99_ms", percentile(sortedCopy(rc.latenessMs), 0.99))
		put("driver.backlog_max", float64(max(rc.backlogMax[0], rc.backlogMax[1])))
		rc.notes["backlog_max_halves"] = rc.backlogMax
	}
}

// printResult writes the human-readable metric lines and, last, the one
// JSON object the driver reads, which carries the declared metrics only.
func printResult(res *runResult) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	bypassed := make(map[string]bool)
	for _, n := range res.Bypassed {
		bypassed[n] = true
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  attempted %d  failed %d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed)
	for _, name := range names {
		if bypassed[name] {
			fmt.Printf("  %-34s %14s  (layer bypassed by this workload)\n", name, "-")
			continue
		}
		fmt.Printf("  %-34s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	contract := make(map[string]metricValue)
	for _, m := range append(declared(endToEnd), perLayer...) {
		if v, ok := res.Metrics[m.Name]; ok {
			contract[m.Name] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": contract,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(line))
	return err
}
