package rfd_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"rfd/bgp"
	"rfd/damping"
	"rfd/experiment"
	"rfd/topology"
	"rfd/trace"
)

// forkEquivalenceScenarios are the configurations the fork-equivalence
// invariant is pinned on: both topology families of the paper (mesh and
// Internet-derived) under classic damping and under RCN-enhanced damping.
func forkEquivalenceScenarios(t *testing.T) map[string]experiment.Scenario {
	t.Helper()
	mesh, err := topology.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	inet, err := topology.InternetDerived(topology.DefaultInternetConfig(30, 1))
	if err != nil {
		t.Fatal(err)
	}
	damped := bgp.DefaultConfig()
	params := damping.Cisco()
	damped.Damping = &params
	rcn := damped
	rcn.EnableRCN = true

	return map[string]experiment.Scenario{
		"mesh-damped":     {Graph: mesh, ISP: 0, Config: damped, Pulses: 3},
		"mesh-rcn":        {Graph: mesh, ISP: 0, Config: rcn, Pulses: 3},
		"internet-damped": {Graph: inet, ISP: 15, Config: damped, Pulses: 3},
		"internet-rcn":    {Graph: inet, ISP: 15, Config: rcn, Pulses: 3},
	}
}

// tracedRun executes the scenario through run (either experiment.Run or a
// Checkpoint's Run) with a fresh event log attached, returning the Result and
// the serialized flap-phase trace.
func tracedRun(t *testing.T, sc experiment.Scenario,
	run func(experiment.Scenario) (*experiment.Result, error)) (*experiment.Result, []byte) {
	t.Helper()
	sc.Trace = trace.NewLog(0)
	res, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Trace.Dropped() != 0 {
		t.Fatalf("trace dropped %d events", sc.Trace.Dropped())
	}
	var buf bytes.Buffer
	if err := sc.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestForkEquivalence is the tentpole's correctness contract: a run resumed
// from a forked converged checkpoint produces the byte-identical event trace
// and a deeply equal Result compared to a from-scratch run, across both
// topology families and both damping variants.
func TestForkEquivalence(t *testing.T) {
	for name, base := range forkEquivalenceScenarios(t) {
		t.Run(name, func(t *testing.T) {
			scratchRes, scratchTrace := tracedRun(t, base, experiment.Run)

			cp, err := (*experiment.CheckpointPool)(nil).Get(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			forkRes, forkTrace := tracedRun(t, base, cp.Run)

			if !bytes.Equal(scratchTrace, forkTrace) {
				i := 0
				for i < len(scratchTrace) && i < len(forkTrace) && scratchTrace[i] == forkTrace[i] {
					i++
				}
				t.Fatalf("forked trace diverges from scratch trace at byte %d (scratch %d bytes, fork %d bytes)",
					i, len(scratchTrace), len(forkTrace))
			}
			if len(scratchTrace) == 0 {
				t.Fatal("empty trace: the comparison is vacuous")
			}
			if !reflect.DeepEqual(scratchRes, forkRes) {
				t.Fatal("forked Result differs from scratch Result")
			}

			// A second fork of the same checkpoint replays identically too.
			res2, trace2 := tracedRun(t, base, cp.Run)
			if !bytes.Equal(forkTrace, trace2) || !reflect.DeepEqual(forkRes, res2) {
				t.Fatal("two forks of one checkpoint disagree")
			}
		})
	}

	// Sweep row: a pulse sweep flaps one trajectory and forks it mid-flight at
	// every requested count, and each point must still be deeply equal to a
	// from-scratch run of that count.
	for _, name := range []string{"internet-rcn"} {
		t.Run("sweep/"+name, func(t *testing.T) {
			base := forkEquivalenceScenarios(t)[name]
			pts, err := experiment.SweepParallelContext(context.Background(), base, experiment.PulseRange(0, base.Pulses), 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range pts {
				sc := base
				sc.Pulses = pt.Pulses
				want, err := experiment.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if want.MessageCount == 0 && pt.Pulses > 0 {
					t.Fatal("empty run: the comparison is vacuous")
				}
				if !reflect.DeepEqual(want, pt.Result) {
					t.Fatalf("sweep point n=%d differs from a from-scratch run", pt.Pulses)
				}
			}
		})
	}
}
