// Command rfdfig regenerates the tables and figures of "Timer Interaction in
// Route Flap Damping" (ICDCS 2005): CSV data files plus ASCII previews, and
// the Markdown report of the whole evaluation.
//
// Examples:
//
//	rfdfig -fig fig8 -out out/            # Fig 8 at paper scale (slow-ish)
//	rfdfig -fig all -small -out out/      # everything, reduced scale
//	rfdfig -fig fig3                      # print to stdout (no -out)
//	rfdfig -fig report -out docs          # regenerate docs/report.md
//	rfdfig -fig all -noplot -cpuprofile cpu.out   # profile the build (go tool pprof cpu.out)
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rfd/experiment"
	"rfd/internal/asciiplot"
	"rfd/internal/cli"
)

// Ctrl-C / SIGTERM cancels every in-flight sweep via the options context;
// partially written figure files are abandoned where they are.
func main() {
	cli.Main("rfdfig", func(ctx context.Context, args []string) error { return run(ctx, args, os.Stdout) })
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rfdfig", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "table1 | fig3 | fig7 | fig8 | fig9 | fig10 | fig13 | fig14 | fig15 | deployment | filters | intervals | sizes | events | loss | all | report")
		outDir   = fs.String("out", "", "directory for CSV output (stdout when empty)")
		small    = fs.Bool("small", false, "reduced scale (5x5 mesh, 30/40-node internet, 4 pulses) for quick runs")
		seed     = fs.Uint64("seed", 1, "random seed")
		noPlot   = fs.Bool("noplot", false, "suppress ASCII previews")
		workers  = fs.Int("workers", runtime.NumCPU(), "simulations running at once across the build")
		check    = fs.Bool("check", false, "run every scenario under the runtime invariant checker (slower; any violation fails the figure)")
		progress = fs.Bool("progress", false, "print a live line per warm-up/point (sweep points and single runs) to stderr as each completes (long figure builds stop being silent)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the figure build to this file")
		memProf  = fs.String("memprofile", "", "write a post-build heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	todo := jobs(*fig)
	if len(todo) == 0 {
		return fmt.Errorf("unknown -fig %q", *fig)
	}

	stop, err := cli.Profile(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stop()

	opts := experiment.DefaultOptions()
	if *small {
		opts = experiment.SmallOptions()
	}
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Check = *check
	opts.Ctx = ctx
	if *progress {
		// Every sweep/checkpoint a figure runs reports through the options
		// context; cache-served points show up flagged as cached.
		opts.Ctx = experiment.WithProgress(ctx, experiment.TextProgress(os.Stderr))
	}
	opts.Cache = experiment.NewRunCache()

	g := generator{opts: opts.SharedBudget(), outDir: *outDir, plot: !*noPlot}
	if err := build(g, todo, stdout); err != nil {
		return err
	}
	if hits, misses, uncacheable := opts.Cache.Stats(); hits+misses+uncacheable > 0 {
		_, _, evicted := opts.Cache.Resident()
		fmt.Fprintf(stdout, "run cache: %d hits, %d misses, %d uncacheable, %d evicted\n", hits, misses, uncacheable, evicted)
	}
	return nil
}

// figure is one named generator step. Figures that come out of one shared
// pass name it: a build runs the pass once, as the job of the first such
// figure requested.
type figure struct {
	name string
	fn   func(*generator) error
	pass string
}

// figures lists every generator in the fixed order -fig all runs them.
// The previous map-based dispatch iterated in Go's randomized map order, so
// consecutive `rfdfig -fig all` invocations produced their artifacts (and
// "wrote ..." lines) in different sequences; the slice makes the order part
// of the CLI contract. TestFigureOrder pins it.
var figures = []figure{
	{"table1", (*generator).table1, ""},
	{"fig3", (*generator).fig3, ""},
	{"fig7", (*generator).fig7, ""},
	{"fig8", (*generator).eval, "eval"}, // fig8/9/13/14 share one evaluation pass
	{"fig9", (*generator).eval, "eval"},
	{"fig10", (*generator).fig10, ""},
	{"fig13", (*generator).eval, "eval"},
	{"fig14", (*generator).eval, "eval"},
	{"fig15", (*generator).fig15, ""},
	// Extensions beyond the paper's figures (tech-report variations).
	{"deployment", (*generator).deployment, ""},
	{"filters", (*generator).filters, ""},
	{"intervals", (*generator).intervals, ""},
	{"sizes", (*generator).sizes, ""},
	{"events", (*generator).events, ""},
	{"loss", (*generator).loss, ""},
}

// jobs returns the figures -fig name builds, in figures order: every one for
// "all", else the one named. A shared pass is the job of the first figure
// that names it; the others are dropped. The Markdown report of the whole
// evaluation is not one of the figures: only -fig report builds it.
func jobs(name string) []figure {
	if name == "report" {
		return []figure{{"report", (*generator).report, ""}}
	}
	var out []figure
	passes := map[string]bool{}
	for _, f := range figures {
		if name != "all" && name != f.name || passes[f.pass] {
			continue
		}
		if f.pass != "" {
			passes[f.pass] = true
		}
		out = append(out, f)
	}
	return out
}

// errAbandoned is the cancellation cause of the figures after a failed one.
var errAbandoned = errors.New("an earlier figure failed")

// build runs every job's generator at once, each on a copy of g with a
// buffer of its own, and writes the buffers to w in jobs order, each as soon
// as the jobs before it are done. The options' budget, not the number of
// jobs, bounds the simulations running. A failed job cancels the jobs after
// it, and the output stops after it; the error is the first job's, in order,
// that failed for a reason other than that cancellation. build returns once
// every job's goroutine has finished.
func build(g generator, jobs []figure, w io.Writer) error {
	parent := g.opts.Ctx
	if parent == nil {
		parent = context.Background()
	}
	gens := make([]generator, len(jobs))
	cancels := make([]context.CancelCauseFunc, len(jobs))
	for i := range jobs {
		gens[i] = g
		gens[i].out = new(bytes.Buffer)
		gens[i].opts.Ctx, cancels[i] = context.WithCancelCause(parent)
	}
	errs := make([]error, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i, f := range jobs {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			if errs[i] = f.fn(&gens[i]); errs[i] != nil {
				errs[i] = fmt.Errorf("%s: %w", f.name, errs[i])
				for _, cancel := range cancels[i+1:] {
					cancel(errAbandoned)
				}
			}
		}()
	}
	var first error
	for i := range jobs {
		<-done[i]
		cancels[i](nil)
		if first == nil {
			if _, err := w.Write(gens[i].out.Bytes()); err != nil {
				first = err
			}
		}
		if errs[i] != nil && (first == nil || errors.Is(first, errAbandoned) && !errors.Is(errs[i], errAbandoned)) {
			first = errs[i]
		}
	}
	return first
}

// generator is one figure's job: the build's options and destination, and
// the buffer its report lines, previews and stdout artifacts go to.
type generator struct {
	opts   experiment.Options
	outDir string
	plot   bool
	out    *bytes.Buffer
}

// write writes one artifact with fn: to a file under outDir, else to out.
func (g *generator) write(name string, fn func(io.Writer) error) error {
	if g.outDir == "" {
		fmt.Fprintf(g.out, "--- %s ---\n", name)
		return fn(g.out)
	}
	if err := os.MkdirAll(g.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(g.outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(g.out, "wrote %s\n", path)
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (g *generator) report() error {
	return g.write("report.md", func(w io.Writer) error { return experiment.WriteReport(w, g.opts) })
}

func (g *generator) table1() error {
	return g.write("table1.csv", experiment.WriteTable1CSV)
}

func (g *generator) fig3() error {
	data, err := experiment.Fig3(g.opts)
	if err != nil {
		return err
	}
	if err := g.write("fig3_penalty.csv", data.WriteCSV); err != nil {
		return err
	}
	if g.plot {
		var xs, ys []float64
		for _, p := range data.Trace {
			xs = append(xs, p.At.Seconds())
			ys = append(ys, p.Penalty)
		}
		return asciiplot.Plot(g.out, "Fig 3: damping penalty (cutoff 2000, reuse 750)",
			[]asciiplot.Series{{Name: "penalty", X: xs, Y: ys}}, 72, 16)
	}
	return nil
}

func (g *generator) fig7() error {
	data, err := experiment.Fig7(g.opts)
	if err != nil {
		return err
	}
	if err := g.write("fig7_penalty.csv", data.WriteCSV); err != nil {
		return err
	}
	fmt.Fprintf(g.out, "fig7: watched router %d peer %d; %d secondary-charging increments; convergence %.0f s\n",
		data.Watched.Router, data.Watched.Peer, data.Recharges, data.Result.ConvergenceTime.Seconds())
	if g.plot && len(data.Trace) > 0 {
		var xs, ys []float64
		for _, p := range data.Trace {
			xs = append(xs, p.At.Seconds())
			ys = append(ys, p.Penalty)
		}
		return asciiplot.Plot(g.out, "Fig 7: penalty at a remote router (single pulse, secondary charging)",
			[]asciiplot.Series{{Name: "penalty", X: xs, Y: ys}}, 72, 16)
	}
	return nil
}

func (g *generator) eval() error {
	data, err := experiment.Eval(g.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(g.out, "eval: %d pulse counts x 4 configurations (critical point Nh = %d)\n",
		len(data.Rows), data.Nh)
	for _, out := range []struct {
		name  string
		write func(io.Writer) error
	}{
		// Fixed order: artifacts must appear deterministically (see figures).
		{"fig8_convergence.csv", data.WriteFig8CSV},
		{"fig9_messages.csv", data.WriteFig9CSV},
		{"fig13_rcn_convergence.csv", data.WriteFig13CSV},
		{"fig14_rcn_messages.csv", data.WriteFig14CSV},
	} {
		if err := g.write(out.name, out.write); err != nil {
			return err
		}
	}
	if !g.plot {
		return nil
	}
	var xs, noDamp, damp, inet, rcnC, calc []float64
	for _, r := range data.Rows {
		xs = append(xs, float64(r.Pulses))
		noDamp = append(noDamp, r.NoDampingMeshConv.Seconds())
		damp = append(damp, r.DampingMeshConv.Seconds())
		inet = append(inet, r.DampingInternetConv.Seconds())
		rcnC = append(rcnC, r.RCNMeshConv.Seconds())
		calc = append(calc, r.CalcConv.Seconds())
	}
	return asciiplot.Plot(g.out, "Fig 8/13: convergence time (s) vs pulses",
		[]asciiplot.Series{
			{Name: "no damping (mesh)", X: xs, Y: noDamp},
			{Name: "full damping (mesh)", X: xs, Y: damp},
			{Name: "full damping (internet)", X: xs, Y: inet},
			{Name: "damping + RCN", X: xs, Y: rcnC},
			{Name: "calculation", X: xs, Y: calc},
		}, 72, 18)
}

func (g *generator) fig10() error {
	data, err := experiment.Fig10(g.opts)
	if err != nil {
		return err
	}
	if err := g.write("fig10_series.csv", data.WriteCSV); err != nil {
		return err
	}
	for _, n := range []int{1, 3, 5} {
		res := data.Runs[n]
		fmt.Fprintf(g.out, "fig10 n=%d: convergence %.0f s, %d updates, peak damped links %d, %s\n",
			n, res.ConvergenceTime.Seconds(), res.MessageCount, res.MaxDamped, res.Phases)
	}
	return nil
}

func (g *generator) deployment() error {
	rows, err := experiment.PartialDeployment(g.opts, []int{0, 25, 50, 75, 100}, 1)
	if err != nil {
		return err
	}
	return g.write("ext_deployment.csv", func(w io.Writer) error { return experiment.WriteDeploymentCSV(w, rows) })
}

func (g *generator) filters() error {
	rows, err := experiment.FilterComparison(g.opts, experiment.PulseRange(0, g.opts.MaxPulses))
	if err != nil {
		return err
	}
	if err := g.write("ext_filters.csv", func(w io.Writer) error { return experiment.WriteFilterCSV(w, rows) }); err != nil {
		return err
	}
	if !g.plot {
		return nil
	}
	var xs, classic, selective, rcnC, intended []float64
	for _, r := range rows {
		xs = append(xs, float64(r.Pulses))
		classic = append(classic, r.Classic.Seconds())
		selective = append(selective, r.Selective.Seconds())
		rcnC = append(rcnC, r.RCN.Seconds())
		intended = append(intended, r.Intended.Seconds())
	}
	return asciiplot.Plot(g.out, "Penalty filters: convergence time (s) vs pulses",
		[]asciiplot.Series{
			{Name: "classic damping", X: xs, Y: classic},
			{Name: "selective damping (Mao et al.)", X: xs, Y: selective},
			{Name: "RCN-enhanced", X: xs, Y: rcnC},
			{Name: "intended", X: xs, Y: intended},
		}, 72, 16)
}

func (g *generator) intervals() error {
	rows, err := experiment.FlapIntervalSweep(g.opts, []time.Duration{
		15 * time.Second, 30 * time.Second, 60 * time.Second,
		2 * time.Minute, 5 * time.Minute, 15 * time.Minute, 30 * time.Minute,
	}, 3)
	if err != nil {
		return err
	}
	return g.write("ext_intervals.csv", func(w io.Writer) error { return experiment.WriteIntervalCSV(w, rows) })
}

func (g *generator) sizes() error {
	sides := []int{4, 6, 8, 10, 12}
	if g.opts.MeshRows < 10 { // -small
		sides = []int{4, 5, 6}
	}
	rows, err := experiment.TopologySizeSweep(g.opts, sides, 1)
	if err != nil {
		return err
	}
	return g.write("ext_sizes.csv", func(w io.Writer) error { return experiment.WriteSizeCSV(w, rows) })
}

func (g *generator) events() error {
	rows, err := experiment.ConvergenceEvents(g.opts)
	if err != nil {
		return err
	}
	return g.write("ext_events.csv", func(w io.Writer) error { return experiment.WriteEventsCSV(w, rows) })
}

func (g *generator) loss() error {
	rows, err := experiment.LossSweep(g.opts, experiment.DefaultLossRates, 2)
	if err != nil {
		return err
	}
	if err := g.write("ext_loss.csv", func(w io.Writer) error { return experiment.WriteLossCSV(w, rows) }); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(g.out, "loss %5.1f%%: plain %4.0f s (%s), damped %4.0f s peak %d damped links (%s), %d+%d dropped\n",
			r.Rate*100, r.Plain.Conv.Seconds(), r.Plain.Outcome,
			r.Damped.Conv.Seconds(), r.Damped.MaxDamped, r.Damped.Outcome,
			r.Plain.Dropped, r.Damped.Dropped)
	}
	return nil
}

func (g *generator) fig15() error {
	data, err := experiment.Fig15(g.opts)
	if err != nil {
		return err
	}
	if err := g.write("fig15_policy.csv", data.WriteCSV); err != nil {
		return err
	}
	if !g.plot {
		return nil
	}
	var xs, withPol, noPol, intended []float64
	for _, r := range data.Rows {
		xs = append(xs, float64(r.Pulses))
		withPol = append(withPol, r.WithPolicy.Seconds())
		noPol = append(noPol, r.NoPolicy.Seconds())
		intended = append(intended, r.Intended.Seconds())
	}
	return asciiplot.Plot(g.out, fmt.Sprintf("Fig 15: policy impact (%d-node internet)", data.Nodes),
		[]asciiplot.Series{
			{Name: "with policy (no-valley)", X: xs, Y: withPol},
			{Name: "no policy (shortest path)", X: xs, Y: noPol},
			{Name: "intended (calculation)", X: xs, Y: intended},
		}, 72, 16)
}
