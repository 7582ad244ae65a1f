package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"rfd/experiment"
)

// figStep is one of rfdfig's generators, called in-process: name keys the
// experiment.fig.<name>_s metric and run writes each CSV the generator
// produces through emit, under the file name rfdfig gives it.
type figStep struct {
	name string
	run  func(o experiment.Options, emit emitFunc) error
}

// emitFunc receives one CSV: the file name rfdfig gives it and its writer.
type emitFunc func(file string, write func(io.Writer) error) error

// figSteps mirrors cmd/rfdfig's generator list, in its -fig all order and
// with its arguments, so the in-process pass does the work of one rfdfig
// process minus process start, flag parsing and file I/O.
var figSteps = []figStep{
	{"table1", func(o experiment.Options, emit emitFunc) error {
		return emit("table1.csv", experiment.WriteTable1CSV)
	}},
	{"fig3", func(o experiment.Options, emit emitFunc) error {
		d, err := experiment.Fig3(o)
		if err != nil {
			return err
		}
		return emit("fig3_penalty.csv", d.WriteCSV)
	}},
	{"fig7", func(o experiment.Options, emit emitFunc) error {
		d, err := experiment.Fig7(o)
		if err != nil {
			return err
		}
		return emit("fig7_penalty.csv", d.WriteCSV)
	}},
	{"eval", func(o experiment.Options, emit emitFunc) error {
		d, err := experiment.Eval(o)
		if err != nil {
			return err
		}
		for _, out := range []struct {
			file  string
			write func(io.Writer) error
		}{
			{"fig8_convergence.csv", d.WriteFig8CSV},
			{"fig9_messages.csv", d.WriteFig9CSV},
			{"fig13_rcn_convergence.csv", d.WriteFig13CSV},
			{"fig14_rcn_messages.csv", d.WriteFig14CSV},
		} {
			if err := emit(out.file, out.write); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig10", func(o experiment.Options, emit emitFunc) error {
		d, err := experiment.Fig10(o)
		if err != nil {
			return err
		}
		return emit("fig10_series.csv", d.WriteCSV)
	}},
	{"fig15", func(o experiment.Options, emit emitFunc) error {
		d, err := experiment.Fig15(o)
		if err != nil {
			return err
		}
		return emit("fig15_policy.csv", d.WriteCSV)
	}},
	{"deployment", func(o experiment.Options, emit emitFunc) error {
		rows, err := experiment.PartialDeployment(o, []int{0, 25, 50, 75, 100}, 1)
		if err != nil {
			return err
		}
		return emit("ext_deployment.csv", func(w io.Writer) error { return experiment.WriteDeploymentCSV(w, rows) })
	}},
	{"filters", func(o experiment.Options, emit emitFunc) error {
		rows, err := experiment.FilterComparison(o, experiment.PulseRange(0, o.MaxPulses))
		if err != nil {
			return err
		}
		return emit("ext_filters.csv", func(w io.Writer) error { return experiment.WriteFilterCSV(w, rows) })
	}},
	{"intervals", func(o experiment.Options, emit emitFunc) error {
		rows, err := experiment.FlapIntervalSweep(o, []time.Duration{
			15 * time.Second, 30 * time.Second, 60 * time.Second,
			2 * time.Minute, 5 * time.Minute, 15 * time.Minute, 30 * time.Minute,
		}, 3)
		if err != nil {
			return err
		}
		return emit("ext_intervals.csv", func(w io.Writer) error { return experiment.WriteIntervalCSV(w, rows) })
	}},
	{"sizes", func(o experiment.Options, emit emitFunc) error {
		sides := []int{4, 6, 8, 10, 12}
		if o.MeshRows < 10 { // -small
			sides = []int{4, 5, 6}
		}
		rows, err := experiment.TopologySizeSweep(o, sides, 1)
		if err != nil {
			return err
		}
		return emit("ext_sizes.csv", func(w io.Writer) error { return experiment.WriteSizeCSV(w, rows) })
	}},
	{"events", func(o experiment.Options, emit emitFunc) error {
		rows, err := experiment.ConvergenceEvents(o)
		if err != nil {
			return err
		}
		return emit("ext_events.csv", func(w io.Writer) error { return experiment.WriteEventsCSV(w, rows) })
	}},
	{"loss", func(o experiment.Options, emit emitFunc) error {
		rows, err := experiment.LossSweep(o, experiment.DefaultLossRates, 2)
		if err != nil {
			return err
		}
		return emit("ext_loss.csv", func(w io.Writer) error { return experiment.WriteLossCSV(w, rows) })
	}},
}

// figOptions are the options rfdfig builds from the flags the benchmark
// passes it.
func figOptions(e *env) experiment.Options {
	o := experiment.DefaultOptions()
	o.Seed = figSeeds(e.seed, 1)[0]
	o.Workers = e.par
	o.Cache = experiment.NewRunCache()
	if e.scale.figSmall {
		o.MeshRows, o.MeshCols = 5, 5
		o.InternetNodes = 30
		o.PolicyNodes = 40
		o.MaxPulses = 4
	}
	return o
}

// figPass calls every generator's experiment functions in-process with one
// shared RunCache, one child span each. It returns the CSV digests, each
// step's seconds and the pass's wall seconds.
func figPass(e *env, tr *tracer, lm layerMetrics) (map[string]string, []float64, float64, error) {
	o := figOptions(e)
	digests := map[string]string{}
	var emit emitFunc = func(file string, write func(io.Writer) error) error {
		h := sha256.New()
		if err := write(h); err != nil {
			return err
		}
		digests[file] = hex.EncodeToString(h.Sum(nil))
		return nil
	}
	runtime.GC() // the pass starts from a collected heap, as a fresh rfdfig process does
	steps := make([]float64, len(figSteps))
	root := tr.begin("paper-figs.in_process", -1)
	for i, st := range figSteps {
		id := tr.begin("experiment.fig."+st.name, root)
		err := st.run(o, emit)
		steps[i] = tr.end(id)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	total := tr.end(root)
	hits, misses, _ := o.Cache.Stats()
	lm["experiment.runcache.hits"] = float64(hits)
	lm["experiment.runcache.misses"] = float64(misses)
	return digests, steps, total, nil
}

// tracePaperFigs is paper-figs' own part of the traced run: the in-process
// figure pass, then a few real rfdfig processes to size what the process
// adds around it.
func tracePaperFigs(e *env, tr *tracer, lm layerMetrics, checks *e2eRun) error {
	// Medians over a few passes and processes: one pass is half a second, and
	// a single sample of it moves more than the process overhead it is
	// subtracted from.
	const passes, procs = 3, 5
	var digests map[string]string
	var totals []float64
	perStep := make([][]float64, len(figSteps))
	for p := 0; p < passes; p++ {
		d, steps, total, err := figPass(e, tr, lm)
		if err != nil {
			return err
		}
		digests = d
		totals = append(totals, total)
		for i, s := range steps {
			perStep[i] = append(perStep[i], s)
		}
	}
	for i, st := range figSteps {
		lm["experiment.fig."+st.name+"_s"] = median(perStep[i])
	}
	var err error
	bin := e.rfdfigBin
	if bin == "" {
		if bin, err = buildBinary(e, "rfdfig"); err != nil {
			return err
		}
	}
	var walls []float64
	for i := 0; i <= procs; i++ {
		id := tr.begin("rfdfig.process", -1)
		op, err := runRfdfig(e, bin, i, figSeeds(e.seed, 1)[0])
		tr.end(id)
		if err != nil {
			return err
		}
		if i == 0 {
			continue // warm-up: page cache and CPU frequency
		}
		walls = append(walls, op.wall)
		checks.attempted++
		if bad := diffDigests(op.digests, digests); len(bad) > 0 {
			checks.fail("rfdfig's CSVs differ from the in-process pass: %v", bad)
		}
	}
	lm["rfdfig.proc_overhead_ms"] = (median(walls) - median(totals)) * 1e3
	return nil
}
