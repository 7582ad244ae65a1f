package experiment

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"rfd/topology"
)

// TestSpecBounds: every bound is refused by Validate, and by Scenario before
// the graph source is asked, with a message that names its field; a spec at
// each bound passes.
func TestSpecBounds(t *testing.T) {
	for _, tc := range []struct {
		spec    Spec
		wantErr string
	}{
		{Spec{Rows: 70000, Cols: 1}, "rows 70000 exceeds the 65536-router limit"},
		{Spec{Rows: 3, Cols: 70000}, "cols 70000 exceeds the 65536-router limit"},
		{Spec{Topology: "ring", Nodes: 70000}, "nodes 70000 exceeds the 65536-router limit"},
		{Spec{Topology: "ring", Nodes: 6, Rows: 70000}, "rows 70000 exceeds"}, // a size the family does not read
		{Spec{Rows: 1000, Cols: 1000}, "rows x cols 1000x1000 exceeds the 65536-router limit"},
		{Spec{Topology: "fullmesh", Nodes: 513}, "nodes 513: topology of up to 131328 links exceeds the 131072-link limit"},
		{Spec{Topology: "waxman", Nodes: 65536}, "nodes 65536: topology of up to"},
		{Spec{FlapIntervalS: -5}, "flap_interval_s -5 outside [0, 86400] s"},
		{Spec{FlapIntervalS: 86401}, "flap_interval_s 86401 outside"},
		{Spec{FlapIntervalS: math.NaN()}, "flap_interval_s NaN outside"},
		{Spec{FlapIntervalS: math.Inf(1)}, "flap_interval_s +Inf outside"},
		{Spec{Pulses: make([]int, 65)}, "pulses: too many pulse counts (65, max 64)"},
	} {
		if err := tc.spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%+v: Validate = %v, want %q", tc.spec, err, tc.wantErr)
		}
		asked := false
		graph := func(topology.Shape) (*topology.Graph, error) { asked = true; return nil, nil }
		if _, _, err := tc.spec.Scenario(SmallOptions(), graph); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%+v: Scenario err = %v, want %q", tc.spec, err, tc.wantErr)
		}
		if asked {
			t.Errorf("%+v: graph source asked for a refused spec", tc.spec)
		}
	}
	// A size left out takes the options' value before the bound is checked.
	if _, _, err := (Spec{Cols: 60000}).Scenario(SmallOptions(), topology.Shape.Generate); err == nil || !strings.Contains(err.Error(), "rows x cols 5x60000 exceeds") {
		t.Errorf("5x60000 mesh by default rows: err = %v", err)
	}
	for _, ok := range []Spec{
		{Rows: 256, Cols: 256},
		{Topology: "ring", Nodes: 65536},
		{Topology: "fullmesh", Nodes: 512},
		{FlapIntervalS: 86400},
		{Pulses: make([]int, 64)},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v at the bound: %v", ok, err)
		}
	}
}

// TestSpecNeverOpensAFile: a topology that names a file is an unknown family,
// refused before the graph source is asked — a daemon must never open a file
// a client names.
func TestSpecNeverOpensAFile(t *testing.T) {
	asked := false
	graph := func(topology.Shape) (*topology.Graph, error) { asked = true; return nil, nil }
	_, _, err := Spec{Topology: "caida:/etc/passwd"}.Scenario(SmallOptions(), graph)
	if err == nil || !strings.Contains(err.Error(), `unknown topology family "caida:/etc/passwd"`) {
		t.Errorf("err = %v, want an unknown topology family", err)
	}
	if asked {
		t.Error("graph source asked for a file-named topology")
	}
}

// TestSpecScenarioLikeDaemonScenario: a spec that spells out its sizes, seed
// and interval builds the scenario — cache key, ispAS, interval — that
// DaemonScenario builds from the same names on options carrying those values,
// and comes back with the pulse counts it names, 0..MaxPulses when it names
// none.
func TestSpecScenarioLikeDaemonScenario(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		o    func(*Options)
	}{
		{Spec{Rows: 5, Cols: 5, Damping: "cisco", Seed: 1}, func(o *Options) { *o = daemonOptions() }},
		{Spec{Topology: "internet", Nodes: 30, Damping: "cisco", RCN: true, Seed: 1}, func(o *Options) { *o = daemonOptions() }},
		{Spec{Topology: "mesh", Rows: 4, Cols: 6, Damping: "juniper", Seed: 3, FlapIntervalS: 30, Pulses: []int{2, 7}}, func(o *Options) {
			o.MeshRows, o.MeshCols, o.Seed, o.FlapInterval = 4, 6, 3, 30*time.Second
		}},
		{Spec{Topology: "ring", Nodes: 9, Damping: "ripe229", Seed: 5}, func(o *Options) {
			o.InternetNodes, o.Seed = 9, 5
		}},
	} {
		o := SmallOptions()
		tc.o(&o)
		want, err := DaemonScenario(o, tc.spec.Topology, tc.spec.Damping, tc.spec.RCN)
		if err != nil {
			t.Fatal(err)
		}
		got, pulses, err := tc.spec.Scenario(SmallOptions(), topology.Shape.Generate)
		if err != nil {
			t.Fatal(err)
		}
		gotKey, ok1 := got.Fingerprint()
		wantKey, ok2 := want.Fingerprint()
		if !ok1 || !ok2 || gotKey != wantKey || got.ISP != want.ISP || got.FlapInterval != want.FlapInterval {
			t.Errorf("%+v: key %s isp %d interval %v; DaemonScenario gives %s isp %d interval %v",
				tc.spec, gotKey, got.ISP, got.FlapInterval, wantKey, want.ISP, want.FlapInterval)
		}
		wantPulses := tc.spec.Pulses
		if wantPulses == nil {
			wantPulses = PulseRange(0, SmallOptions().MaxPulses)
		}
		if !slices.Equal(pulses, wantPulses) {
			t.Errorf("%+v: pulses %v, want %v", tc.spec, pulses, wantPulses)
		}
	}
}
