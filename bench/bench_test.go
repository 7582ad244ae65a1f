package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func smokeEnv(t *testing.T) *env {
	t.Helper()
	return &env{
		seed:      7,
		scale:     smokeScale,
		par:       2,
		workDir:   t.TempDir(),
		log:       io.Discard,
		rfdfigBin: os.Getenv("RFDFIG_BIN"),
		rfddBin:   os.Getenv("RFDD_BIN"),
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the lists in spec.go
// and to the limits the benchmark contract puts on the file.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Workloads, workloads) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", bf.Workloads, workloads)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code sizes op counts for %d", bf.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range bf.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// checkReport asserts a report carries exactly the declared metrics, each
// once (it is a map), finite, and with its declared unit.
func checkReport(t *testing.T, what string, specs []metricSpec, rep report) {
	t.Helper()
	if len(rep.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(rep.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", what, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", what, m.Name, got.Unit, m.Unit)
		}
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
}

// TestSmokeEndToEnd walks every workload the host can serve without a build
// at the smoke scale and checks each emits every end-to-end metric, positive.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			e := smokeEnv(t)
			if w.Name == wPaperFigs && e.rfdfigBin == "" {
				t.Skip("set RFDFIG_BIN to a prebuilt rfdfig to run this leg; the smoke test does not go build")
			}
			if w.Name == wRfddMix && e.rfddBin == "" {
				t.Skip("set RFDD_BIN to a prebuilt rfdd to run this leg; the smoke test does not go build")
			}
			r, err := runEndToEnd(e, w.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Error(p)
			}
			rep := buildReport(endToEnd, endToEndMetrics(r), r)
			checkReport(t, w.Name, endToEnd, rep)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			if len(r.counters) == 0 {
				t.Errorf("%s: no exact counters", w.Name)
			}
		})
	}
}

// TestSmokeTraced checks the traced run emits every per-layer metric: those
// of another workload's own layers as 0, every other one set by a measurement
// (buildReport fails the run otherwise), and the exercised layers non-zero.
func TestSmokeTraced(t *testing.T) {
	shared := []string{
		"eventq.push_pop_ns", "sim.events", "sim.dispatch_ns", "sim.shard.epochs", "sim.shard.barrier_us",
		"damping.exact.update_ns", "damping.updates", "bgp.engine_s", "bgp.deliver_ns", "bgp.delivered",
		"bgp.snapshot_ms", "bgp.fork_ms", "bgp.sharded.delivered", "topology.internet_gen_ms", "trace.events",
		"metrics.record_ns", "experiment.run_s", "experiment.self_s", "experiment.fingerprint_us", "updates_per_host_s",
	}
	own := map[string][]string{
		wPaperFigs: {"experiment.fig.eval_s", "experiment.runcache.misses"},
		wRfddMix:   {"cold_s_p50", "cachewarm_s_p99", "rfdd.warmup_ms", "rfdd.point_ms", "rfdd.resp_bytes", "rfdd.cache_hits"},
	}
	for _, w := range []string{wInetSeq, wPaperFigs, wRfddMix} {
		t.Run(w, func(t *testing.T) {
			e := smokeEnv(t)
			if (w == wPaperFigs && e.rfdfigBin == "") || (w == wRfddMix && e.rfddBin == "") {
				t.Skip("needs a prebuilt binary (RFDFIG_BIN / RFDD_BIN); the smoke test does not go build")
			}
			o := options{workload: w, trace: 1, traceOut: filepath.Join(e.workDir, "trace.json")}
			rep, err := runTraced(e, o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, w+" traced", perLayer, rep)
			for _, name := range append(shared, own[w]...) {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, rep.Metrics[name].Value, w)
				}
			}
			for _, m := range perLayer {
				if only := measuredOnlyOn(m.Name); only != "" && only != w && rep.Metrics[m.Name].Value != 0 {
					t.Errorf("%s = %v on %s, but only %s measures it", m.Name, rep.Metrics[m.Name].Value, w, only)
				}
			}
			if rep.Metrics["bgp.delivered"].Value != rep.Metrics["bgp.sharded.delivered"].Value {
				t.Errorf("engines delivered %v and %v updates", rep.Metrics["bgp.delivered"].Value, rep.Metrics["bgp.sharded.delivered"].Value)
			}
			if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("no span file written: %v", err)
			}
		})
	}
}

// TestUnmeasuredMetricFailsTheRun pins that a metric no measurement set is a
// failed check, not a 0, and that every per-layer metric belongs either to
// the shared layer pass or to a workload that exists.
func TestUnmeasuredMetricFailsTheRun(t *testing.T) {
	checks := &e2eRun{attempted: 1}
	rep := buildReport(perLayer[:2], layerMetrics{perLayer[0].Name: 1}, checks)
	if rep.Correct || rep.Failed != 1 || !strings.Contains(checks.problems[0], perLayer[1].Name) {
		t.Errorf("an unmeasured metric must fail the run: %+v %v", rep, checks.problems)
	}
	checks = &e2eRun{attempted: 1}
	if rep := buildReport(endToEnd[:1], map[string]float64{endToEnd[0].Name: 0}, checks); rep.Failed != 1 {
		t.Errorf("an end-to-end metric of 0 must fail the run: %+v", rep)
	}
	for _, m := range perLayer {
		if only := measuredOnlyOn(m.Name); only != "" && validWorkload(only) != nil {
			t.Errorf("%s is measured only on unknown workload %q", m.Name, only)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false}, {10, 0, false}, {19, 0, false}, // inet-seq: no tail is reported
		{20, 50, true}, {39, 50, true}, // only the median has ten samples beyond it
		{40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {1600, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 of five = %v, want the maximum", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

// TestScheduleIsSeeded pins the properties the rfdd-mix checks rest on: the
// same seed gives the same bytes, every session is a new base, and each
// client's list alternates topology kinds in opposite phase.
func TestScheduleIsSeeded(t *testing.T) {
	a := makeSessions(3, fullScale, 0, 16)
	b := makeSessions(3, fullScale, 0, 16)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, makeSessions(4, fullScale, 0, 16)) {
		t.Error("different seeds, same schedule")
	}
	seeds := map[uint64]bool{}
	for i, s := range a {
		if seeds[s.seed] {
			t.Errorf("session %d reuses seed %d", i, s.seed)
		}
		seeds[s.seed] = true
		if len(s.reqs) != 13 || s.reqs[0].class != classCold || s.reqs[1].class != classSnapWarm || s.reqs[3].class != classCacheWarm {
			t.Errorf("session %d: unexpected request list %+v", i, s.reqs)
		}
		if i >= 2 && s.kind == a[i-2].kind {
			t.Errorf("client %d serves kind %d twice in a row", i%2, s.kind)
		}
		if i%2 == 1 && s.kind == a[i-1].kind {
			t.Errorf("sessions %d and %d run side by side with the same kind", i-1, i)
		}
	}
	for _, s := range makeSessions(3, fullScale, 16, 4) {
		if seeds[s.seed] {
			t.Errorf("offset schedule reuses seed %d", s.seed)
		}
	}
}

// TestExpectedFile checks the recorded counters cover all four workloads and
// that the two engines' entries agree.
func TestExpectedFile(t *testing.T) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exp.Counters[wInetSeq], exp.Counters[wInetShard2]) {
		t.Errorf("expected.json: inet-seq %v and inet-shard2 %v must be identical", exp.Counters[wInetSeq], exp.Counters[wInetShard2])
	}
	e := &env{seed: defaultSeed, scale: fullScale}
	for _, w := range workloads {
		r := &e2eRun{workload: w.Name, counters: map[string]string{}}
		checkExpected(e, r)
		if n := len(exp.Counters[w.Name]); n == 0 || r.failed != n {
			t.Errorf("%s: an empty run should fail once per recorded counter (%d), got %d: %v", w.Name, n, r.failed, r.problems)
		}
		r = &e2eRun{workload: w.Name, counters: map[string]string{"stray": "1"}}
		for k, v := range exp.Counters[w.Name] {
			r.counters[k] = v
		}
		checkExpected(e, r)
		if r.failed != 1 {
			t.Errorf("%s: a counter expected.json lacks must fail the run, got %v", w.Name, r.problems)
		}
	}
	seq := &e2eRun{workload: wInetSeq, counters: map[string]string{"msgs": "1"}}
	checkExpected(e, seq)
	if seq.failed == 0 {
		t.Errorf("a wrong counter must fail the run, got %v", seq.problems)
	}
	other := &env{seed: defaultSeed + 1, scale: fullScale}
	seq = &e2eRun{workload: wInetSeq, counters: map[string]string{"msgs": "1"}}
	checkExpected(other, seq)
	if seq.failed == 0 {
		t.Errorf("the inet pair runs the reference episode at every seed and is always checked, got %v", seq.problems)
	}
	mix := &e2eRun{workload: wRfddMix, counters: map[string]string{"replies_sha256.first20": "x"}}
	checkExpected(other, mix)
	if mix.failed != 0 {
		t.Errorf("expected.json applies to seeded workloads at the default seed only, got %v", mix.problems)
	}
}
