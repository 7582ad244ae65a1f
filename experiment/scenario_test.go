package experiment

import (
	"bytes"
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/topology"
)

// testOptions shrinks everything so the full figure pipeline runs in CI time.
func testOptions() Options {
	return Options{
		MeshRows:      5,
		MeshCols:      5,
		InternetNodes: 30,
		PolicyNodes:   40,
		MaxPulses:     4,
		FlapInterval:  DefaultFlapInterval,
		Seed:          1,
	}
}

func smallMesh(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func dampingCfg() bgp.Config {
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	return cfg
}

func TestScenarioValidation(t *testing.T) {
	g := smallMesh(t)
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"nil graph", Scenario{Config: bgp.DefaultConfig()}},
		{"empty graph", Scenario{Graph: topology.New("e", 0), Config: bgp.DefaultConfig()}},
		{"isp out of range", Scenario{Graph: g, ISP: 999, Config: bgp.DefaultConfig()}},
		{"negative pulses", Scenario{Graph: g, Pulses: -1, Config: bgp.DefaultConfig()}},
		{"negative interval", Scenario{Graph: g, FlapInterval: -time.Second, Config: bgp.DefaultConfig()}},
		{"invalid config", Scenario{Graph: g, Config: bgp.Config{}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(c.sc); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestRunDoesNotMutateCallerGraph pins what lets one graph serve many
// scenarios at once (rfdd shares a graph per request shape): every way of
// running a scenario clones sc.Graph before attaching the origin, so the
// caller's graph keeps its shape, its annotations and its cache key.
func TestRunDoesNotMutateCallerGraph(t *testing.T) {
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(30, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Graph: g, ISP: 15, Config: dampingCfg(), Pulses: 1}
	nodes, edges := g.NumNodes(), g.NumEdges()
	key, _ := sc.Fingerprint()
	var encoded bytes.Buffer
	if err := g.WriteTSV(&encoded); err != nil {
		t.Fatal(err)
	}
	pooled := NewRunCache()
	pooled.SetCheckpointPool(NewCheckpointPool(1))
	for name, run := range map[string]func() error{
		"Run":         func() error { _, err := Run(sc); return err },
		"Run sharded": func() error { sh := sc; sh.Shards = 2; _, err := Run(sh); return err },
		"Sweep":       func() error { _, err := SweepParallel(sc, []int{0, 1}, 2); return err },
		"cache+pool":  func() error { _, err := pooled.Sweep(sc, []int{0, 1}, 2); return err },
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var after bytes.Buffer
		if err := g.WriteTSV(&after); err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != nodes || g.NumEdges() != edges || !bytes.Equal(after.Bytes(), encoded.Bytes()) {
			t.Fatalf("%s mutated the caller's graph", name)
		}
		if got, _ := sc.Fingerprint(); got != key {
			t.Fatalf("%s changed the scenario's fingerprint: %s -> %s", name, key, got)
		}
	}
}

func TestRunZeroPulsesQuiescent(t *testing.T) {
	res, err := Run(Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessageCount != 0 {
		t.Fatalf("messages = %d with zero pulses", res.MessageCount)
	}
	if res.ConvergenceTime != 0 {
		t.Fatalf("convergence = %v with zero pulses", res.ConvergenceTime)
	}
	if res.MaxDamped != 0 || res.OriginSuppressed {
		t.Fatal("damping activity with zero pulses")
	}
}

func TestRunSinglePulseDampedMesh(t *testing.T) {
	res, err := Run(Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginSuppressed {
		t.Fatal("single pulse suppressed the origin link")
	}
	if res.MaxDamped == 0 {
		t.Fatal("single pulse caused no false suppression")
	}
	if res.ConvergenceTime < 10*time.Minute {
		t.Fatalf("convergence %v; expected reuse-timer scale", res.ConvergenceTime)
	}
	if !res.Phases.HasRelease {
		t.Fatal("no releasing phase detected")
	}
	// Releasing dominates convergence for a single pulse (paper: ~70%).
	if f := res.Phases.ReleasingFraction(); f < 0.4 {
		t.Fatalf("releasing fraction %.2f; expected the releasing period to dominate", f)
	}
	if res.NoisyReuses == 0 {
		t.Fatal("no noisy reuses after single pulse")
	}
	// The run drains completely: damped series returns to zero.
	if got := res.Damped.ValueAt(res.EndTime); got != 0 {
		t.Fatalf("%d links still damped at end", got)
	}
}

func TestRunThreePulsesSuppressOrigin(t *testing.T) {
	res, err := Run(Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OriginSuppressed {
		t.Fatal("origin link not suppressed after 3 pulses")
	}
}

func TestRunFlapTimesConsistent(t *testing.T) {
	res, err := Run(Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlapEnd <= res.FlapStart {
		t.Fatalf("flap window [%v, %v] inverted", res.FlapStart, res.FlapEnd)
	}
	// W@0, A@60, W@120, A@180 relative to FlapStart.
	if got := res.FlapEnd - res.FlapStart; got != 180*time.Second {
		t.Fatalf("flap window length %v, want 180s", got)
	}
	if res.EndTime < res.FlapEnd {
		t.Fatal("end before flap end")
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 2}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConvergenceTime != b.ConvergenceTime || a.MessageCount != b.MessageCount ||
		a.MaxDamped != b.MaxDamped || a.NoisyReuses != b.NoisyReuses {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

func TestRunPenaltyWatch(t *testing.T) {
	g := smallMesh(t)
	sc := Scenario{Graph: g, ISP: 0, Config: dampingCfg(), Pulses: 1}
	// Watch routers away from the ispAS. (The ispAS itself never hears this
	// prefix from its mesh peers — every path contains it, so loop filtering
	// silences its sessions; the interesting penalties build up remotely.)
	for _, router := range g.NodesAtDistance(0, 2) {
		for _, peer := range g.Neighbors(router) {
			sc.Watch = append(sc.Watch, PenaltyWatch{Router: router, Peer: peer})
		}
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for _, tr := range res.PenaltyTraces {
		recorded += tr.Len()
	}
	if recorded == 0 {
		t.Fatal("penalty watch recorded nothing")
	}
}

func TestRunOriginWatch(t *testing.T) {
	g := smallMesh(t)
	sc := Scenario{Graph: g, ISP: 0, Config: dampingCfg(), Pulses: 3}
	w := PenaltyWatch{Router: 0, Peer: sc.OriginID()}
	sc.Watch = []PenaltyWatch{w}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.PenaltyTraces[w]
	if tr.Len() < 3 {
		t.Fatalf("origin-link trace has %d points, want >= 3 (one per withdrawal)", tr.Len())
	}
	peak := 0.0
	for _, p := range tr.Points() {
		peak = max(peak, p.Value)
	}
	if peak <= 2000 {
		t.Fatalf("origin-link penalty peaked at %v, want > cutoff", peak)
	}
}

func TestFlapViaLinkEquivalence(t *testing.T) {
	// The literal link-flap model must show the same qualitative behaviour
	// as the origination toggle: origin suppressed at 3 pulses, false
	// suppression present, reuse-timer-scale convergence.
	run := func(viaLink bool, pulses int) *Result {
		res, err := Run(Scenario{
			Graph:       smallMesh(t),
			ISP:         0,
			Config:      dampingCfg(),
			Pulses:      pulses,
			FlapViaLink: viaLink,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, pulses := range []int{1, 3} {
		toggle := run(false, pulses)
		link := run(true, pulses)
		if toggle.OriginSuppressed != link.OriginSuppressed {
			t.Fatalf("n=%d: origin suppression differs: toggle=%t link=%t",
				pulses, toggle.OriginSuppressed, link.OriginSuppressed)
		}
		if (toggle.MaxDamped > 0) != (link.MaxDamped > 0) {
			t.Fatalf("n=%d: false suppression differs: %d vs %d",
				pulses, toggle.MaxDamped, link.MaxDamped)
		}
		// Same order of magnitude of convergence delay (both reuse-timer
		// driven).
		ratio := link.ConvergenceTime.Seconds() / toggle.ConvergenceTime.Seconds()
		if ratio < 0.3 || ratio > 3 {
			t.Fatalf("n=%d: convergence diverges: toggle %v, link %v",
				pulses, toggle.ConvergenceTime, link.ConvergenceTime)
		}
	}
}

func TestFlapViaLinkWithRCN(t *testing.T) {
	// RCN over the link-event cause path: one link flap, no suppression.
	cfg := dampingCfg()
	cfg.EnableRCN = true
	res, err := Run(Scenario{
		Graph:       smallMesh(t),
		ISP:         0,
		Config:      cfg,
		Pulses:      1,
		FlapViaLink: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDamped != 0 {
		t.Fatalf("RCN link flap suppressed %d links", res.MaxDamped)
	}
	if res.ConvergenceTime > 10*time.Minute {
		t.Fatalf("RCN link-flap convergence %v", res.ConvergenceTime)
	}
}

// TestSweepOrderAndParallel: whatever order the pulse counts are given in —
// shuffled, descending, with repeats — the points come back in that order,
// each distinct count is simulated once, every point equals a standalone Run
// of its count, and the worker bound changes nothing.
func TestSweepOrderAndParallel(t *testing.T) {
	var runs atomic.Int64
	orig := pointRunner
	pointRunner = func(ctx context.Context, f *flight, sc Scenario) (*Result, error) {
		runs.Add(1)
		return orig(ctx, f, sc)
	}
	defer func() { pointRunner = orig }()

	for _, tc := range []struct {
		name     string
		cfg      bgp.Config
		pulses   []int
		distinct int64
	}{
		{"shuffled", bgp.DefaultConfig(), []int{2, 0, 1}, 3},
		{"descending", dampingCfg(), []int{3, 2, 1, 0}, 4},
		{"duplicates", dampingCfg(), []int{1, 3, 1, 0, 3}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: tc.cfg}
			runs.Store(0)
			seq, err := SweepParallel(sc, tc.pulses, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := runs.Load(); got != tc.distinct {
				t.Errorf("sweep of %v ran %d points, want one per distinct count (%d)", tc.pulses, got, tc.distinct)
			}
			par, err := SweepParallel(sc, tc.pulses, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range tc.pulses {
				if seq[i].Pulses != n || par[i].Pulses != n {
					t.Fatalf("sweep order broken at %d: %d / %d, want %d", i, seq[i].Pulses, par[i].Pulses, n)
				}
				one := sc
				one.Pulses = n
				want, err := Run(one)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq[i].Result, want) {
					t.Errorf("workers=1 point n=%d differs from a standalone Run", n)
				}
				if !reflect.DeepEqual(par[i].Result, want) {
					t.Errorf("workers=4 point n=%d differs from a standalone Run", n)
				}
			}
		})
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t), ISP: 999, Config: bgp.DefaultConfig()}
	if _, err := Sweep(sc, []int{0, 1}); err == nil {
		t.Fatal("sweep swallowed run error")
	}
}

func TestPulseRange(t *testing.T) {
	got := PulseRange(0, 3)
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("PulseRange = %v", got)
	}
	if PulseRange(5, 4) != nil {
		t.Fatal("inverted range non-nil")
	}
}

func TestOriginID(t *testing.T) {
	g := smallMesh(t)
	sc := Scenario{Graph: g}
	if got := sc.OriginID(); got != bgp.RouterID(g.NumNodes()) {
		t.Fatalf("OriginID = %d", got)
	}
}
