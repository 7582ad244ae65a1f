package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRunSmallScenario(t *testing.T) {
	args := []string{"-rows", "4", "-cols", "4", "-pulses", "1"}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
}

func TestRunVariants(t *testing.T) {
	cases := [][]string{
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "off"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "none"}, // rfdd's spelling of off
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "ripe229"},
		{"-topology", "star", "-nodes", "6", "-pulses", "1"}, // any rfdtopo family
		{"-rows", "4", "-cols", "4", "-pulses", "2", "-damping", "juniper", "-v"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-rcn"},
		{"-topology", "ring", "-nodes", "10", "-pulses", "1"},
		{"-topology", "line", "-nodes", "5", "-pulses", "0"},
		{"-topology", "internet", "-nodes", "20", "-pulses", "1", "-policy", "novalley"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-mrai", "0s"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-isp", "3"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	// A fault-plan sweep rides the trunk: its rows must not depend on how
	// many branches drain at once, and every row must read as the
	// standalone run of its pulse count.
	plan := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(plan, []byte("90s reset 0 1\n150s flap 5 6 100s\n200s crash 10 90s\n400s reset 20 21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	faulty := []string{"-rows", "12", "-cols", "12", "-faults", plan}
	var rows map[string][]string
	for _, workers := range []string{"1", "4"} {
		sweep, _ := capture(t, slices.Concat(faulty, []string{"-sweep", "0:6", "-workers", workers})...)
		got := make(map[string][]string)
		for _, line := range strings.Split(sweep, "\n") {
			if f := strings.Fields(line); len(f) == 6 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					got[f[0]] = f // pulses, convergence_s, messages, …
				}
			}
		}
		if len(got) != 7 {
			t.Errorf("-sweep 0:6 printed %d points, want 7:\n%s", len(got), sweep)
		}
		if rows != nil && !maps.EqualFunc(rows, got, slices.Equal) {
			t.Errorf("-sweep 0:6 rows differ between -workers 1 and -workers %s:\n%s", workers, sweep)
		}
		rows = got
	}
	for n := 0; n <= 6; n++ {
		one, _ := capture(t, slices.Concat(faulty, []string{"-pulses", strconv.Itoa(n)})...)
		conv, msgs := field(one, "convergence time"), field(one, "message count")
		if row := rows[strconv.Itoa(n)]; row == nil || row[1] != conv || row[2] != msgs {
			t.Errorf("-sweep row %v, want convergence %s and messages %s as -pulses %d reports", row, conv, msgs, n)
		}
	}
}

// TestScalarsIndependentOfVerbose: without -v rfdsim records no series
// (Scenario.NoSeries) and counts the damped links as they flip instead of
// scanning every RIB-IN; every scalar line must match a -v run's.
func TestScalarsIndependentOfVerbose(t *testing.T) {
	args := []string{"-topology", "internet", "-nodes", "300"}
	scalars := func(out string) string {
		out, _, _ = strings.Cut(withoutWallTime(out), "\n\n") // the series follow a blank line
		return strings.TrimSuffix(out, "\n")
	}
	plain, _ := capture(t, args...)
	verbose, _ := capture(t, append(args, "-v")...)
	if scalars(plain) != scalars(verbose) {
		t.Errorf("scalar lines differ with -v:\n%s\nwithout:\n%s", scalars(verbose), scalars(plain))
	}
	if damped := field(plain, "damped links max"); damped == "" || damped == "0" {
		t.Errorf("damped links max %q, want a damped run:\n%s", damped, plain)
	}
}

// field returns the first word after label on the line of out it starts.
func field(out, label string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, label); ok {
			return strings.Fields(rest)[0]
		}
	}
	return ""
}

func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "off", "-trace", path}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty trace file")
	}
}

// TestRunSweepWritesTrace: a traced sweep's file is the files of the
// standalone traced runs of its pulse counts, one after another in ascending
// order.
func TestRunSweepWritesTrace(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-rows", "4", "-cols", "4"}
	path := filepath.Join(dir, "sweep.jsonl")
	capture(t, append(args, "-sweep", "0:2", "-trace", path)...)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for n := 0; n <= 2; n++ {
		path := filepath.Join(dir, "pulses.jsonl")
		capture(t, append(args, "-pulses", strconv.Itoa(n), "-trace", path)...)
		one, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, one...)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("-sweep 0:2 trace (%d bytes) differs from the -pulses 0, 1, 2 traces concatenated (%d bytes)", len(got), len(want))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-topology", "moebius"}, "unknown topology family"},
		{[]string{"-damping", "huawei"}, "unknown damping preset"},
		{[]string{"-policy", "chaos"}, "unknown policy"},
		{[]string{"-topology", "ring", "-nodes", "2"}, "ring needs >= 3 nodes, got 2"},
		// rfdd's bounds, from the one Spec both build through.
		{[]string{"-rows", "100000", "-cols", "100000"}, "router limit"},
		{[]string{"-topology", "fullmesh", "-nodes", "513"}, "link limit"},
		{[]string{"-rows", "4", "-cols", "4", "-interval", "48h"}, "flap_interval_s 172800 outside [0, 86400] s"},
		// One engine: the sharded one is reachable only through Scenario.Shards.
		{[]string{"-rows", "4", "-cols", "4", "-shards", "2"}, "flag provided but not defined: -shards"},
		// Pre-fix the spec was scanned, not parsed: trailing input was ignored.
		{[]string{"-rows", "4", "-cols", "4", "-sweep", "1:2:9"}, `bad -sweep "1:2:9" (want "from:to"`},
		{[]string{"-rows", "4", "-cols", "4", "-sweep", "1:2abc"}, `bad -sweep "1:2abc" (want "from:to"`},
		{[]string{"-rows", "4", "-cols", "4", "-sweep", ":3"}, `bad -sweep ":3" (want "from:to"`},
		{[]string{"-rows", "4", "-cols", "4", "-sweep", "a:b"}, `bad -sweep "a:b" (want "from:to"`},
		// Pre-fix a negative count warmed up and ran the valid counts first.
		{[]string{"-rows", "4", "-cols", "4", "-sweep", "-2:1"}, "pulses: negative pulse count -2"},
		// Pre-fix an -isp below -1 ran with the default ispAS.
		{[]string{"-rows", "4", "-cols", "4", "-isp", "-5"}, "-isp -5"},
		// Pre-fix a negative (or NaN) loss or jitter skipped the impairment
		// and ran clean.
		{[]string{"-rows", "4", "-cols", "4", "-loss", "-0.5"}, "loss probability -0.5 outside [0, 1]"},
		{[]string{"-rows", "4", "-cols", "4", "-loss", "NaN"}, "loss probability NaN outside [0, 1]"},
		{[]string{"-rows", "4", "-cols", "4", "-jitter", "-1s"}, "negative jitter bound -1s"},
	}
	for _, tc := range cases {
		if err := run(context.Background(), tc.args); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%v: err = %v, want one mentioning %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestRunPrintsDrops: an impaired run reports its drop count and the
// watchdog's verdict; a run without impairments or a fault plan prints
// neither line.
func TestRunPrintsDrops(t *testing.T) {
	out, _ := capture(t, "-rows", "6", "-cols", "6", "-loss", "0.01")
	var dropped uint64
	if n := strings.Count(out, "messages dropped"); n != 1 {
		t.Fatalf("%d drop lines, want 1:\n%s", n, out)
	}
	line := out[strings.Index(out, "messages dropped"):]
	if _, err := fmt.Sscanf(line, "messages dropped %d", &dropped); err != nil || dropped == 0 {
		t.Errorf("drop line %q does not report the lost messages (%v)", strings.SplitN(line, "\n", 2)[0], err)
	}
	if !strings.Contains(out, "watchdog") {
		t.Errorf("an impaired run printed no watchdog line:\n%s", out)
	}
	clean, _ := capture(t, "-rows", "4", "-cols", "4")
	if strings.Contains(clean, "messages dropped") || strings.Contains(clean, "watchdog") {
		t.Errorf("a run without impairments printed a drop count or a watchdog line:\n%s", clean)
	}
}

// TestRunHeaderPrintsWhatRan: the header reads the values the run used, not
// the flags: -interval 0 flaps at the default interval, and a -workers below
// one runs one worker.
func TestRunHeaderPrintsWhatRan(t *testing.T) {
	args := []string{"-rows", "4", "-cols", "4"}
	out, _ := capture(t, append(args, "-interval", "0")...)
	if want := "workload          1 pulses, 1m0s interval\n"; !strings.Contains(out, want) {
		t.Errorf("-interval 0 printed\n%s\nwant the line %q", out, want)
	}
	def, _ := capture(t, args...)
	if withoutWallTime(out) != withoutWallTime(def) {
		t.Errorf("-interval 0 ran differently from the default interval:\n%s\nwant\n%s", out, def)
	}
	out, _ = capture(t, append(args, "-sweep", "0:2", "-workers", "-5")...)
	if want := "sweep             pulses 0..2, 1 workers, shared warm-up\n"; !strings.Contains(out, want) {
		t.Errorf("-workers -5 printed\n%s\nwant the line %q", out, want)
	}
}

// TestRunProgressSingleRun: a single run is a sweep of one, so -progress
// reports its warm-up and its one point on stderr, and stdout reads as it does
// without the flag (but for the wall time).
func TestRunProgressSingleRun(t *testing.T) {
	args := []string{"-rows", "4", "-cols", "4", "-pulses", "1"}
	plain, _ := capture(t, args...)
	out, progress := capture(t, append(args, "-progress")...)
	for _, want := range []string{"progress: warm-up started", "progress: warm-up done", "progress: n=1 done"} {
		if !strings.Contains(progress, want) {
			t.Errorf("stderr lacks %q:\n%s", want, progress)
		}
	}
	if withoutWallTime(out) != withoutWallTime(plain) {
		t.Errorf("-progress changed stdout:\n%s\nwithout it:\n%s", out, plain)
	}
}

// capture runs rfdsim with args and returns what it wrote to stdout and to
// stderr.
func capture(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	files := [2]*os.File{}
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	origOut, origErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	err := run(context.Background(), args)
	os.Stdout, os.Stderr = origOut, origErr
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	out, err := os.ReadFile(files[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.ReadFile(files[1].Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), string(errOut)
}

// withoutWallTime drops the one line of rfdsim's output that varies between
// identical runs.
func withoutWallTime(out string) string {
	lines := strings.Split(out, "\n")
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool {
		return strings.HasPrefix(l, "wall time")
	}), "\n")
}

func TestRunCAIDATopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "as-rel.txt")
	data := "# tiny fixture\n10|20|0\n10|30|-1\n20|30|-1\n30|40|-1\n40|10|0\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-topology", "caida:" + path, "-pulses", "1"}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-topology", "caida:" + path + ".missing"}); err == nil {
		t.Fatal("missing CAIDA file accepted")
	}
}
