package experiment

import (
	"strings"
	"testing"

	"rfd/topology"
)

// daemonOptions is a reduced request shape: a 5×5 mesh and a 30-node internet.
func daemonOptions() Options {
	o := DefaultOptions()
	o.MeshRows, o.MeshCols = 5, 5
	o.InternetNodes = 30
	o.Seed = 1
	return o
}

// TestFingerprintTracksGraph: a memoised digest never outlives the graph it
// describes — a key taken after a mutation differs from the one before and
// equals the key of an equal graph built from scratch — and a clone keys like
// its source.
func TestFingerprintTracksGraph(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 2}
	before, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("plain scenario should be fingerprintable")
	}
	cloned := sc
	cloned.Graph = sc.Graph.Clone()
	if got, _ := cloned.Fingerprint(); got != before {
		t.Fatalf("clone fingerprints %s, its source %s", got, before)
	}

	if err := sc.Graph.AddEdge(0, 12); err != nil {
		t.Fatal(err)
	}
	after, _ := sc.Fingerprint()
	if after == before {
		t.Fatal("fingerprint unchanged by AddEdge: stale digest")
	}
	rebuilt := sc
	rebuilt.Graph = smallMesh(t)
	if err := rebuilt.Graph.AddEdge(0, 12); err != nil {
		t.Fatal(err)
	}
	if got, _ := rebuilt.Fingerprint(); got != after {
		t.Fatalf("mutated graph fingerprints %s, an equal fresh graph %s", after, got)
	}
	if got, _ := cloned.Fingerprint(); got != before {
		t.Fatal("mutating the source changed its clone's fingerprint")
	}
}

// TestDaemonScenarioShape: the graph source is asked once per valid Spec,
// with the canonical shape, and never for a request that is refused; the
// scenario built around a kept graph is the one DaemonScenario builds from
// scratch, at the shape's default ispAS.
func TestDaemonScenarioShape(t *testing.T) {
	o := daemonOptions()
	shape := func(topo string) topology.Shape {
		return topology.Shape{Family: topo, Rows: o.MeshRows, Cols: o.MeshCols, Nodes: o.InternetNodes, Seed: o.Seed}
	}
	calls := 0
	kept := map[topology.Shape]*topology.Graph{}
	keep := func(sh topology.Shape) (*topology.Graph, error) {
		calls++
		if c, err := sh.Canonical(); err != nil || c != sh {
			t.Errorf("graph source handed %+v, canonical form %+v (%v)", sh, c, err)
		}
		if g, ok := kept[sh]; ok {
			return g, nil
		}
		g, err := sh.Generate()
		kept[sh] = g
		return g, err
	}
	for _, bad := range []struct{ topo, damp, wantErr string }{
		{"hypercube", "cisco", "unknown topology"},
		{"mesh", "strict", "unknown damping"},
		{"internet", "none", "EnableRCN requires damping"},
		{"hypercube", "none", "EnableRCN requires damping"}, // refused before the topology is looked at
	} {
		if _, _, err := (Spec{Topology: bad.topo, Damping: bad.damp, RCN: true}).Scenario(o, keep); err == nil || !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("%s/%s: err = %v, want %q", bad.topo, bad.damp, err, bad.wantErr)
		}
		if _, err := DaemonScenario(o, bad.topo, bad.damp, true); err == nil || !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("%s/%s uncached: err = %v, want %q", bad.topo, bad.damp, err, bad.wantErr)
		}
	}
	if calls != 0 {
		t.Fatalf("graph source consulted %d times by refused requests", calls)
	}

	for _, topo := range []string{"mesh", "internet"} {
		calls = 0
		want, err := DaemonScenario(o, topo, "juniper", true)
		if err != nil {
			t.Fatal(err)
		}
		wantKey, _ := want.Fingerprint()
		canon := mustCanonical(t, shape(topo))
		if want.ISP != canon.DefaultISP() {
			t.Fatalf("%s: DaemonScenario puts the ispAS at %d, the shape at %d", topo, want.ISP, canon.DefaultISP())
		}
		for i := 0; i < 2; i++ { // generated, then kept
			sc, _, err := Spec{Topology: topo, Damping: "juniper", RCN: true}.Scenario(o, keep)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Graph == nil || sc.Graph != kept[canon] {
				t.Fatalf("%s: scenario does not run on the source's graph", topo)
			}
			if got, _ := sc.Fingerprint(); got != wantKey || sc.ISP != want.ISP {
				t.Fatalf("%s call %d: key %s isp %d, DaemonScenario gives %s isp %d", topo, i, got, sc.ISP, wantKey, want.ISP)
			}
		}
		if calls != 2 {
			t.Fatalf("%s: graph source consulted %d times by 2 requests", topo, calls)
		}
	}
	if len(kept) != 2 {
		t.Fatalf("graph source kept %d graphs for 2 shapes", len(kept))
	}
}

func mustCanonical(t *testing.T, sh topology.Shape) topology.Shape {
	t.Helper()
	c, err := sh.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
