// Command bench is the repository's benchmark: four named workloads, one
// schema, one latency budget. BENCHMARK.json at the repository root describes
// it; README.md in this directory explains every metric.
//
//	go run ./bench                         # every workload, end-to-end metrics
//	go run ./bench -trace 1                # every workload, per-layer metrics + budget
//	go run ./bench -workload inet-seq      # one workload; last stdout line is a JSON result
//	go run ./bench -aa                     # the end-to-end suite twice, compared within bounds
//
// Run it from the repository root. It writes only under .bench_build/.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metricValue is one measured metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a single-workload run ends its standard output
// with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// countersPrefix introduces the line on which a single-workload run prints
// its exact counters, for the suite modes to collect.
const countersPrefix = "counters: "

type options struct {
	workload      string
	seed          uint64
	trace         int
	traceOut      string
	aa            bool
	writeExpected bool
}

func main() {
	var o options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), " | ")+"); empty runs all four, each in a fresh child process")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seeds topology generation, bgp.Config.Seed and the rfdd request schedule")
	// The benchmark driver's command line carries -seconds <run_seconds>. Op
	// counts are fixed in code, sized for that length, so the value is only
	// checked to be a length.
	seconds := fs.Int("seconds", runSeconds, "BENCHMARK.json's run_seconds, which the fixed op counts are sized for; accepted for the driver, changes nothing")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the separate traced run with per-layer metrics and the budget table")
	fs.StringVar(&o.traceOut, "trace-out", "", "file the traced run writes its spans to (default .bench_build/trace-<workload>.json)")
	fs.BoolVar(&o.aa, "aa", false, "run the end-to-end suite twice on the same build and compare within BENCHMARK.json's bounds")
	fs.BoolVar(&o.writeExpected, "write-expected", false, "run the end-to-end suite at the default seed and record its counters in bench/expected.json")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || *seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "bench: -seconds %d changes nothing: op counts are fixed in code, sized for %d s\n", *seconds, runSeconds)
	}
	var err error
	switch {
	case o.aa:
		err = runAA(o)
	case o.writeExpected:
		err = runWriteExpected(o)
	case o.workload == "":
		_, err = runSuite(o, os.Stdout)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// newEnv prepares the harness environment for one process.
func newEnv(o options, log io.Writer) (*env, error) {
	workDir, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(workDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	return &env{
		seed:    o.seed,
		scale:   fullScale,
		par:     min(runtime.NumCPU(), 2),
		workDir: workDir,
		log:     log,
	}, nil
}

// printHostFacts opens every output with the facts a number is meaningless
// without.
func printHostFacts(w io.Writer, e *env, o options) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), gitCommit())
	fmt.Fprintf(w, "run:  seed=%d scale=%s trace=%d workers/shards/clients<=%d ops:", o.seed, e.scale.name, o.trace, e.par)
	for _, wl := range workloads {
		fmt.Fprintf(w, " %s=%d", wl.Name, e.scale.ops[wl.Name])
	}
	fmt.Fprintln(w, " (rfdd-mix: sessions of 13 requests)")
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(w, "warning: nproc < 2 — inet-shard2 measures coordination overhead, not a parallel speed-up, and rfdd-mix runs one client")
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runEndToEnd dispatches one untraced workload.
func runEndToEnd(e *env, workload string) (*e2eRun, error) {
	switch workload {
	case wPaperFigs:
		return runPaperFigs(e)
	case wInetSeq:
		return runInet(e, wInetSeq, 0)
	case wInetShard2:
		return runInet(e, wInetShard2, 2)
	case wRfddMix:
		return runRfddMix(e)
	}
	return nil, validWorkload(workload)
}

// endToEndMetrics derives the end-to-end metrics from a run.
func endToEndMetrics(r *e2eRun) map[string]float64 {
	ops := float64(len(r.ops))
	return map[string]float64{
		"setup_s":      median(r.setup),
		"op_s_p50":     r.opP50,
		"ops_per_s":    ops / r.wall,
		"cpu_s_per_op": r.cpu / ops,
		"peak_rss_mb":  r.rssMiB,
	}
}

// buildReport checks every declared metric was measured — present, finite
// and, for an end-to-end metric, positive — and assembles the result line.
func buildReport(specs []metricSpec, values map[string]float64, checks *e2eRun) report {
	rep := report{Attempted: checks.attempted, Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (m.Bound > 0 && v <= 0) {
			checks.fail("metric %s was not measured", m.Name)
			v = 0
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rep.Failed = checks.failed
	rep.Correct = checks.failed == 0 && checks.attempted > 0
	return rep
}

func printMetrics(w io.Writer, specs []metricSpec, rep report) {
	for _, m := range specs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
}

func printChecks(w io.Writer, checks *e2eRun) {
	fmt.Fprintf(w, "output checks: %d attempted, %d failed (failed_frac = %.4g)\n",
		checks.attempted, checks.failed, float64(checks.failed)/float64(max(checks.attempted, 1)))
	for _, p := range checks.problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
}

// runOne runs a single workload in this process and ends standard output
// with the JSON result line.
func runOne(o options) error {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	e, err := newEnv(o, out)
	if err != nil {
		return err
	}
	printHostFacts(out, e, o)
	var rep report
	if o.trace == 0 {
		r, err := runEndToEnd(e, o.workload)
		if err != nil {
			return err
		}
		checkExpected(e, r)
		rep = buildReport(endToEnd, endToEndMetrics(r), r)
		fmt.Fprintf(out, "workload %s: %d ops, %s\n", r.workload, len(r.ops), r.params)
		printMetrics(out, endToEnd, rep)
		fmt.Fprintf(out, "  op wall: median %.6g s, %s; timed wall %.3f s; set-up repetitions %.3f s\n",
			median(r.ops), describeTiming(r.ops), r.wall, r.setup)
		if msgs, err := strconv.ParseFloat(r.counters["msgs"], 64); err == nil {
			fmt.Fprintf(out, "  updates_per_host_s = %.0f / op_s_p50 = %.6g 1/s\n", msgs, msgs/r.opP50)
		}
		if r.mix != nil {
			fmt.Fprintf(out, "  request classes (median is the mean of the mesh and internet medians):\n%s", describeClasses(r.mix))
		}
		printChecks(out, r)
		counters, err := json.Marshal(r.counters)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s%s\n", countersPrefix, counters)
	} else {
		if rep, err = runTraced(e, o, out); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// runTraced is the separate traced run of one workload: it times calls into
// each layer's public functions from outside and prints the per-layer
// metrics and the budget table.
func runTraced(e *env, o options, out io.Writer) (report, error) {
	if err := validWorkload(o.workload); err != nil {
		return report{}, err
	}
	tr := newTracer(o.workload)
	// Only the metrics of another workload's own layers start at 0 (that
	// layer did no work here). Every other one must be set by a measurement,
	// or buildReport fails the run: a layer that silently stopped reporting
	// must not read as a layer at rest.
	lm := layerMetrics{}
	for _, m := range perLayer {
		if only := measuredOnlyOn(m.Name); only != "" && only != o.workload {
			lm[m.Name] = 0
		}
	}
	checks := &e2eRun{workload: o.workload}
	if err := traceLayers(e, tr, o.workload, lm, checks); err != nil {
		return report{}, err
	}
	var err error
	switch o.workload {
	case wPaperFigs:
		err = tracePaperFigs(e, tr, lm, checks)
	case wRfddMix:
		err = traceRfdd(e, tr, lm, checks)
	}
	if err != nil {
		return report{}, err
	}
	rep := buildReport(perLayer, lm, checks)
	fmt.Fprintf(out, "workload %s, traced: per-layer metrics\n", o.workload)
	printMetrics(out, perLayer, rep)
	printBudget(out, o.workload, lm)
	printChecks(out, checks)

	path := o.traceOut
	if path == "" {
		path = filepath.Join(e.workDir, "trace-"+o.workload+".json")
	}
	if err := tr.writeFile(path); err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), path)
	return rep, nil
}

func validWorkload(workload string) error {
	for _, w := range workloads {
		if w.Name == workload {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloadNames(), ", "))
}

// childResult is what the suite keeps of one workload's child process.
type childResult struct {
	report   report
	counters map[string]string
}

// runChild runs one workload in a fresh process of this binary, so heap
// growth in one workload cannot leak into the next one's timings and peak
// RSS is per workload. The child's output is passed through.
func runChild(o options, workload string, out io.Writer) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(o.trace)}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &buf)
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("workload %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.report); err != nil {
		return res, fmt.Errorf("workload %s: no result line: %w", workload, err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, countersPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &res.counters); err != nil {
				return res, fmt.Errorf("workload %s: bad counters line: %w", workload, err)
			}
		}
	}
	return res, nil
}

// runSuite runs every workload, each in its own child, and prints one table
// of every metric by name and unit. It fails if any output check failed.
func runSuite(o options, out io.Writer) (map[string]childResult, error) {
	results := make(map[string]childResult, len(workloads))
	for _, w := range workloads {
		fmt.Fprintf(out, "\n=== %s ===\n", w.Name)
		res, err := runChild(o, w.Name, out)
		if err != nil {
			return nil, err
		}
		results[w.Name] = res
	}
	specs := endToEnd
	if o.trace == 1 {
		specs = perLayer
	}
	fmt.Fprintf(out, "\n=== summary (seed %d) ===\n%-36s %-6s", o.seed, "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(out, " %14s", w.Name)
	}
	fmt.Fprintln(out)
	for _, m := range specs {
		fmt.Fprintf(out, "%-36s %-6s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Fprintf(out, " %14.6g", results[w.Name].report.Metrics[m.Name].Value)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-36s %-6s", "failed_frac", "ratio")
	failed := 0
	for _, w := range workloads {
		rep := results[w.Name].report
		failed += rep.Failed
		fmt.Fprintf(out, " %14.4g", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	}
	fmt.Fprintln(out)
	if failed > 0 {
		return results, fmt.Errorf("%d output checks failed", failed)
	}
	return results, nil
}

// runAA runs the end-to-end suite twice back to back on the same build and
// holds the pair to the benchmark's own bounds: every exact counter equal,
// every end-to-end metric within aaBound.
func runAA(o options) error {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	o.trace = 0
	out := os.Stdout
	var runs [2]map[string]childResult
	for i := range runs {
		fmt.Fprintf(out, "\n##### A/A run %d of 2 #####\n", i+1)
		if runs[i], err = runSuite(o, out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\n=== A/A comparison ===\n%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	violations := 0
	for _, w := range bf.Workloads {
		a, b := runs[0][w.Name], runs[1][w.Name]
		for _, m := range bf.EndToEnd {
			va, vb := a.report.Metrics[m.Name].Value, b.report.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == higher {
				worse = (va - vb) / va
			}
			bound := aaBound(m, w.Name)
			verdict := ""
			if math.Abs(worse) > bound {
				verdict = "  EXCEEDS BOUND"
				violations++
			}
			fmt.Fprintf(out, "%-14s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*bound, verdict)
		}
		for _, k := range sortedKeys(a.counters) {
			if a.counters[k] != b.counters[k] {
				fmt.Fprintf(out, "%-14s counter %s differs: %s vs %s\n", w.Name, k, a.counters[k], b.counters[k])
				violations++
			}
		}
		if len(a.counters) != len(b.counters) {
			fmt.Fprintf(out, "%-14s counter sets differ\n", w.Name)
			violations++
		}
	}
	if violations > 0 {
		return fmt.Errorf("A/A: %d differences beyond the bounds", violations)
	}
	fmt.Fprintln(out, "A/A: every exact counter identical, every end-to-end metric within its bound")
	return nil
}

// runWriteExpected regenerates bench/expected.json. Only a change that is
// meant to alter simulated behaviour should ever need it.
func runWriteExpected(o options) error {
	o.seed, o.trace = defaultSeed, 0
	results, err := runSuite(o, os.Stdout)
	if results == nil {
		return err
	}
	counters := make(map[string]map[string]string, len(results))
	for name, res := range results {
		counters[name] = res.counters
	}
	return writeExpected(filepath.Join("bench", "expected.json"), counters)
}
