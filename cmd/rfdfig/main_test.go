package main

import (
	"context"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rfd/experiment"
)

// TestFigureOrder pins the -fig all execution order. The dispatch used to
// iterate a map, so artifacts were produced in a different order on every
// invocation; the order is now part of the CLI contract.
func TestFigureOrder(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig7", "fig8", "fig9", "fig10", "fig13", "fig14",
		"fig15", "deployment", "filters", "intervals", "sizes", "events", "loss",
	}
	if len(figures) != len(want) {
		t.Fatalf("got %d figures, want %d", len(figures), len(want))
	}
	for i, f := range figures {
		if f.name != want[i] {
			t.Errorf("figures[%d] = %q, want %q", i, f.name, want[i])
		}
		if f.fn == nil {
			t.Errorf("figures[%d] (%q) has nil generator", i, f.name)
		}
	}
}

// TestFigureNamesUnique guards against a copy-paste duplicate shadowing a
// figure (with the map this was impossible; with the slice a duplicate would
// silently run one generator twice).
func TestFigureNamesUnique(t *testing.T) {
	seen := make(map[string]bool, len(figures))
	for _, f := range figures {
		if seen[f.name] {
			t.Errorf("duplicate figure name %q", f.name)
		}
		seen[f.name] = true
	}
}

// TestRunRejectsBadFlags: the run cache lives in memory only, so there is no
// -cachedir.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-cachedir", "x"}, "flag provided but not defined: -cachedir"},
	} {
		if err := run(context.Background(), tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestRunWritesProfiles: -cpuprofile / -memprofile leave a profile each behind
// a figure build, as rfdsim's pair does behind a run.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	args := []string{"-fig", "fig10", "-small", "-noplot", "-out", dir, "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(context.Background(), args, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (err %v)", filepath.Base(name), err)
		}
	}
}

// TestJobsRunEvalOnce: figs 8/9/13/14 come out of one evaluation pass, which
// a build runs once, as the job of the first of them requested.
func TestJobsRunEvalOnce(t *testing.T) {
	for _, tc := range []struct {
		fig  string
		want []string
	}{
		{"all", []string{"table1", "fig3", "fig7", "fig8", "fig10", "fig15",
			"deployment", "filters", "intervals", "sizes", "events", "loss"}},
		{"fig13", []string{"fig13"}},
		{"report", []string{"report"}},
		{"nosuch", nil},
	} {
		var got []string
		for _, f := range jobs(tc.fig) {
			got = append(got, f.name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("jobs(%q) = %v, want %v", tc.fig, got, tc.want)
		}
	}
}

// TestReportMatchesCommitted: -fig report at paper scale writes exactly the
// committed docs/report.md, so every number in it (the critical point Nh = 5
// among them) is one the code still produces.
func TestReportMatchesCommitted(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-fig", "report", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../docs/report.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("docs/report.md is stale; regenerate it from the repository root with\n\tgo run ./cmd/rfdfig -fig report -out docs\nand review the diff")
	}
}

// TestBuildIndependentOfWorkers: the figures build concurrently under one
// budget of -workers simulations, yet one at a time and four at a time write
// the same CSVs and the same stdout, run-cache line included. A -check build
// writes them too: every checked sweep rides the trunk with a checker forked
// into each branch, every invariant holds, and the checker perturbs nothing.
func TestBuildIndependentOfWorkers(t *testing.T) {
	buildAt := func(flags ...string) (map[string]string, string) {
		dir := t.TempDir()
		var stdout strings.Builder
		args := append([]string{"-fig", "all", "-small", "-noplot", "-out", dir}, flags...)
		if err := run(context.Background(), args, &stdout); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files, strings.ReplaceAll(stdout.String(), dir, "OUT")
	}
	files1, out1 := buildAt("-workers", "1")
	if len(files1) != 15 || !strings.Contains(out1, "run cache: ") {
		t.Fatalf("-workers 1 wrote %d CSVs and stdout:\n%s", len(files1), out1)
	}
	for _, flags := range [][]string{{"-workers", "4"}, {"-check"}} {
		files, out := buildAt(flags...)
		if !maps.Equal(files1, files) {
			t.Errorf("CSVs differ between -workers 1 (%d files) and %v (%d files)", len(files1), flags, len(files))
		}
		if out != out1 {
			t.Errorf("stdout differs between -workers 1 and %v:\n%s\n---\n%s", flags, out1, out)
		}
	}
}

// TestRunFailureStopsBuild: the error of a failing build is that of the first
// failing figure in figures order — fig7 here, made to fail; every figure
// simulating after it is cancelled — and a cancelled context stops the build
// with a typed ErrCanceled. Either way no figure goroutine outlives run.
func TestRunFailureStopsBuild(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	errInjected := errors.New("injected figure failure")
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		fail  string // the figure made to fail, if any
		check func(error) bool
	}{
		{"failing figure", context.Background(), "fig7", func(err error) bool {
			return strings.HasPrefix(err.Error(), "fig7: ") && errors.Is(err, errInjected)
		}},
		{"cancelled", cancelled, "", func(err error) bool { return errors.Is(err, experiment.ErrCanceled) }},
	} {
		before := runtime.NumGoroutine()
		restore := func() {}
		if i := slices.IndexFunc(figures, func(f figure) bool { return f.name == tc.fail }); i >= 0 {
			orig := figures[i].fn
			figures[i].fn = func(*generator) error { return errInjected }
			restore = func() { figures[i].fn = orig }
		}
		err := run(tc.ctx, []string{"-fig", "all", "-small", "-noplot", "-out", t.TempDir()}, io.Discard)
		restore()
		if err == nil || !tc.check(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		// A finished goroutine may take a moment to leave the count.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after run, %d before", tc.name, n, before)
		}
	}
}

// TestBuildReportsFirstFailureInOrder: build reports the first failure in jobs
// order, not in time, writes the output of the jobs up to it, cancels the
// jobs after a failed one, and returns only once they have all finished.
func TestBuildReportsFirstFailureInOrder(t *testing.T) {
	var finished atomic.Bool
	jobs := []figure{
		{"ok", func(g *generator) error { _, err := io.WriteString(g.out, "ok\n"); return err }, ""},
		{"slow", func(g *generator) error {
			time.Sleep(50 * time.Millisecond)
			io.WriteString(g.out, "slow\n")
			return errors.New("failed late")
		}, ""},
		{"fast", func(*generator) error { return errors.New("failed at once") }, ""},
		{"cancelled", func(g *generator) error {
			<-g.opts.Ctx.Done()
			time.Sleep(100 * time.Millisecond)
			finished.Store(true)
			return context.Cause(g.opts.Ctx)
		}, ""},
	}
	var out strings.Builder
	err := build(generator{}, jobs, &out)
	if err == nil || err.Error() != "slow: failed late" {
		t.Errorf("err = %v, want slow's", err)
	}
	if out.String() != "ok\nslow\n" {
		t.Errorf("output %q, want the jobs' up to slow", out.String())
	}
	if !finished.Load() {
		t.Error("build returned before the cancelled job finished")
	}
}
