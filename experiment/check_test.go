package experiment

import (
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/faults"
	"rfd/topology"
)

// The checked golden runs: representative scenarios executed end to end under
// Scenario.Check. A clean pass here means every invariant sweep and every
// differential-oracle comparison held for the whole run; any regression in
// the engine's damping, decision, export, MRAI or message accounting fails
// loudly with a diagnosis instead of a wrong figure.

func runChecked(t *testing.T, sc Scenario) *Result {
	t.Helper()
	sc.Check = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check == nil {
		t.Fatal("checked run produced no check report")
	}
	if !res.Check.Ok() {
		t.Fatalf("violations on a run that returned success: %s", res.Check)
	}
	if res.Check.Events == 0 || res.Check.Updates == 0 {
		t.Fatalf("checker observed nothing: %s", res.Check)
	}
	return res
}

func TestCheckedMeshDamped(t *testing.T) {
	res := runChecked(t, Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 3})
	if res.Check.Streams == 0 {
		t.Fatalf("no damping streams shadowed: %s", res.Check)
	}
}

func TestCheckedMeshRCN(t *testing.T) {
	cfg := dampingCfg()
	cfg.EnableRCN = true
	runChecked(t, Scenario{Graph: smallMesh(t), ISP: 0, Config: cfg, Pulses: 3})
}

func TestCheckedInternetDamped(t *testing.T) {
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(30, 1))
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, Scenario{Graph: g, ISP: 15, Config: dampingCfg(), Pulses: 2})
}

func TestCheckedFaultyRun(t *testing.T) {
	imp := faults.NewImpairments(1)
	if err := imp.SetDefault(faults.Profile{Loss: 0.02, MaxJitter: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(
		faults.FlapLink(30*time.Second, 1, 2, 10*time.Second),
		faults.CrashRouter(90*time.Second, 7, 20*time.Second),
	)
	sc := Scenario{
		Graph:  smallMesh(t),
		ISP:    0,
		Config: dampingCfg(),
		Pulses: 2,
		Impair: imp,
		Faults: plan,
	}
	runChecked(t, sc)
}

// TestUncheckedRunHasNoReport pins that Check defaults off: plain runs pay
// nothing and carry no report.
func TestUncheckedRunHasNoReport(t *testing.T) {
	res, err := Run(Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Check != nil {
		t.Fatalf("unchecked run carries a check report: %s", res.Check)
	}
}

// TestCheckedFingerprintDistinct pins the cache-poisoning fix: a checked and
// an unchecked scenario must never share a fingerprint, or a checked figure
// pass could be served unchecked cached Results (and vice versa).
func TestCheckedFingerprintDistinct(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 1}
	plain, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("scenario unexpectedly unfingerprintable")
	}
	sc.Check = true
	checked, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("checked scenario unexpectedly unfingerprintable")
	}
	if plain == checked {
		t.Fatal("checked and unchecked scenarios share a fingerprint")
	}
}

// TestWatchdogDrainKeepsEndTime: a watchdog-drained run reports the same
// EndTime as a Run-drained one. Both drains settle the clock at the latest
// MRAI interval end still running (sim.Kernel.Settle); the run is undamped,
// so no reuse timer outlives that interval and the settle is what sets
// EndTime. An empty fault plan puts the run under the watchdog and changes
// nothing else.
func TestWatchdogDrainKeepsEndTime(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: bgp.DefaultConfig(), Pulses: 2}
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.EndTime <= plain.ConvergenceTime {
		t.Fatalf("EndTime %v is the last delivery: no MRAI interval outlived it", plain.EndTime)
	}
	sc.Faults = faults.NewPlan()
	watched, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if watched.FaultReport == nil || watched.FaultReport.Outcome != faults.Converged {
		t.Fatalf("watchdog report %v, want converged", watched.FaultReport)
	}
	if watched.EndTime != plain.EndTime {
		t.Fatalf("watchdog-drained EndTime %v, Run-drained %v", watched.EndTime, plain.EndTime)
	}
}

// TestCheckedDecisionMatrix runs the features that change which route a
// router prefers, or when it stops using one, under the checker, on a mesh
// and on internet-40. The routers decide incrementally — a change to a route
// that was not the best costs one comparison — and the checker recomputes
// the preference-best route of every router after every event, so it is the
// oracle for those shortcuts. The mesh's no-valley run annotates the torus
// as a hierarchy: of two neighbours, the lower id is the provider.
func TestCheckedDecisionMatrix(t *testing.T) {
	o := SmallOptions()
	o.PolicyNodes = 40
	cisco := damping.Cisco()
	variants := []struct {
		name  string
		apply func(sc *Scenario)
	}{
		{"novalley", func(sc *Scenario) { sc.Config.Policy = bgp.NoValley }},
		{"rcn", func(sc *Scenario) { sc.Config.EnableRCN = true }},
		{"selective", func(sc *Scenario) { sc.Config.SelectiveDamping = true }},
		{"partial", func(sc *Scenario) {
			sc.Config.Damping = nil
			sc.Config.DampingSelect = func(id bgp.RouterID) *damping.Params {
				if id%2 == 0 {
					return &cisco
				}
				return nil
			}
		}},
		{"faults", func(sc *Scenario) {
			edges := sc.Graph.Edges()
			link := edges[len(edges)/2]
			crash := bgp.RouterID(sc.ISP) + 1
			sc.Faults = faults.NewPlan(
				faults.FlapLink(30*time.Second, bgp.RouterID(link.A), bgp.RouterID(link.B), 10*time.Second),
				faults.CrashRouter(90*time.Second, crash, 20*time.Second),
			)
		}},
	}
	for _, topo := range []string{"mesh", "internet-40"} {
		for _, v := range variants {
			t.Run(topo+"/"+v.name, func(t *testing.T) {
				var sc Scenario
				var err error
				if topo == "mesh" {
					sc, err = o.meshScenario(o.dampingConfig())
					if err == nil && v.name == "novalley" {
						sc.Graph = hierarchy(t, sc.Graph)
					}
				} else {
					sc, err = o.internetScenario(o.dampingConfig(), o.PolicyNodes, bgp.ShortestPath)
				}
				if err != nil {
					t.Fatal(err)
				}
				sc.Pulses = 3
				v.apply(&sc)
				runChecked(t, sc)
			})
		}
	}
}

// hierarchy returns a copy of g in which every link's lower-numbered end is
// the provider of the other.
func hierarchy(t *testing.T, g *topology.Graph) *topology.Graph {
	t.Helper()
	h := g.Clone()
	for _, e := range h.Edges() {
		c, p := max(e.A, e.B), min(e.A, e.B)
		if err := h.SetRelationship(c, p, topology.RelProvider); err != nil {
			t.Fatal(err)
		}
	}
	return h
}
