package experiment

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/faults"
	"rfd/topology"
	"rfd/trace"
)

// resultFields compares every externally meaningful Result field between a
// sequential and a sharded run of the same scenario.
func assertResultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	if want.MessageCount != got.MessageCount {
		t.Errorf("MessageCount: %d vs %d", want.MessageCount, got.MessageCount)
	}
	if want.ConvergenceTime != got.ConvergenceTime {
		t.Errorf("ConvergenceTime: %v vs %v", want.ConvergenceTime, got.ConvergenceTime)
	}
	if want.FlapStart != got.FlapStart || want.FlapEnd != got.FlapEnd {
		t.Errorf("flap window: [%v, %v] vs [%v, %v]", want.FlapStart, want.FlapEnd, got.FlapStart, got.FlapEnd)
	}
	if want.EndTime != got.EndTime {
		t.Errorf("EndTime: %v vs %v", want.EndTime, got.EndTime)
	}
	if want.MaxDamped != got.MaxDamped {
		t.Errorf("MaxDamped: %d vs %d", want.MaxDamped, got.MaxDamped)
	}
	if want.NoisyReuses != got.NoisyReuses || want.SilentReuses != got.SilentReuses {
		t.Errorf("reuses: %d/%d vs %d/%d", want.NoisyReuses, want.SilentReuses, got.NoisyReuses, got.SilentReuses)
	}
	if want.OriginSuppressed != got.OriginSuppressed {
		t.Errorf("OriginSuppressed: %t vs %t", want.OriginSuppressed, got.OriginSuppressed)
	}
	if want.Dropped != got.Dropped {
		t.Errorf("Dropped: %d vs %d", want.Dropped, got.Dropped)
	}
	if want.Updates.Count() != got.Updates.Count() {
		t.Errorf("Updates.Count: %d vs %d", want.Updates.Count(), got.Updates.Count())
	}
	if wl, wok := want.Updates.Last(); true {
		gl, gok := got.Updates.Last()
		if wok != gok || wl != gl {
			t.Errorf("Updates.Last: %v/%t vs %v/%t", wl, wok, gl, gok)
		}
	}
	if want.Phases != got.Phases {
		t.Errorf("Phases: %+v vs %+v", want.Phases, got.Phases)
	}
	for w, tr := range want.PenaltyTraces {
		gtr, ok := got.PenaltyTraces[w]
		if !ok {
			t.Errorf("PenaltyTraces missing %+v", w)
			continue
		}
		if tr.Len() != gtr.Len() || tr.Max() != gtr.Max() {
			t.Errorf("PenaltyTraces[%+v]: len %d max %g vs len %d max %g",
				w, tr.Len(), tr.Max(), gtr.Len(), gtr.Max())
		}
	}
}

// TestRunShardedMatchesSequential is the experiment-level equivalence
// property: Run with Shards>1 produces the same Result as Shards<=1.
func TestRunShardedMatchesSequential(t *testing.T) {
	mesh := Scenario{
		Graph:  smallMesh(t),
		ISP:    7,
		Config: dampingCfg(),
		Pulses: 3,
		Watch:  []PenaltyWatch{{Router: 7, Peer: 25}}, // ISP watching the origin
	}
	mesh.Config.Seed = 9

	// A router crashing while it holds suppressed states: the damped-link
	// series counted from suppress/unsuppress events must agree with the
	// live RIB-IN count, which needs the crash to report what it discards.
	inet, err := topology.InternetDerived(topology.DefaultInternetConfig(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	nb, nb2 := bgp.RouterID(inet.Neighbors(30)[0]), bgp.RouterID(inet.Neighbors(30)[1])
	crash := Scenario{
		Graph:  inet,
		ISP:    30,
		Config: dampingCfg(),
		Pulses: 4,
		Faults: faults.NewPlan(
			faults.ResetSession(100*time.Second, 30, nb),
			faults.CrashRouter(130*time.Second, nb, 40*time.Second),
			faults.FlapLink(200*time.Second, 30, nb2, 10*time.Second),
		),
	}

	for _, c := range []struct {
		prefix string
		base   Scenario
		shards []int
	}{
		{"", mesh, []int{2, 4}},
		{"crash-while-suppressed/", crash, []int{2}},
	} {
		want, err := Run(c.base)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range c.shards {
			t.Run(fmt.Sprintf("%sshards=%d", c.prefix, shards), func(t *testing.T) {
				sc := c.base
				sc.Shards = shards
				got, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, want, got)
				if !reflect.DeepEqual(want.Damped, got.Damped) {
					t.Errorf("Damped series differs (max %d vs %d)", want.Damped.Max(), got.Damped.Max())
				}
			})
		}
	}
}

// TestRunShardedLinkFlapMatchesSequential covers the FlapViaLink path, which
// exercises the replicated link-state machinery under the scenario driver.
func TestRunShardedLinkFlapMatchesSequential(t *testing.T) {
	base := Scenario{
		Graph:       smallMesh(t),
		ISP:         3,
		Config:      dampingCfg(),
		Pulses:      2,
		FlapViaLink: true,
	}
	base.Config.Seed = 4
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sc := base
	sc.Shards = 3
	got, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)
}

// TestRunShardedFaultPlanMatchesSequential drives a fault plan through both
// engines: the plan's events are replicated per shard at the same virtual
// times, so the traces stay identical.
func TestRunShardedFaultPlanMatchesSequential(t *testing.T) {
	plan, err := faults.ParsePlan(strings.NewReader(
		"30s down 3 8\n90s up 3 8\n150s reset 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{
		Graph:  smallMesh(t),
		ISP:    3,
		Config: dampingCfg(),
		Pulses: 2,
		Faults: plan,
	}
	base.Config.Seed = 8
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sc := base
	sc.Shards = 2
	got, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)
}

func TestShardedValidation(t *testing.T) {
	g := smallMesh(t)
	valid := func() Scenario {
		return Scenario{Graph: g, ISP: 0, Config: dampingCfg(), Pulses: 1}
	}
	t.Run("negative", func(t *testing.T) {
		sc := valid()
		sc.Shards = -1
		if _, err := Run(sc); err == nil {
			t.Fatal("accepted negative shard count")
		}
	})
	// The watchdog drives one kernel: a sharded faulty run drains bare and
	// carries no report, where the same run on one network is watched.
	t.Run("watchdog", func(t *testing.T) {
		for _, shards := range []int{1, 2} {
			sc := valid()
			sc.Shards = shards
			sc.Faults = faults.NewPlan()
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if watched := res.FaultReport != nil; watched != (shards == 1) {
				t.Fatalf("shards=%d: watched=%t", shards, watched)
			}
		}
	})
	t.Run("check", func(t *testing.T) {
		sc := valid()
		sc.Shards = 2
		sc.Check = true
		if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "invariant checker") {
			t.Fatalf("want checker error, got %v", err)
		}
	})
	// Any impairment model is refused: its one global stream is consumed in
	// the sequential engine's send order, which a sharded run does not have.
	t.Run("global-stream-impairment", func(t *testing.T) {
		sc := valid()
		sc.Shards = 2
		sc.Impair = faults.NewImpairments(1)
		if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "Impair needs the sequential engine") {
			t.Fatalf("want an error naming Impair, got %v", err)
		}
	})
	// A checkpoint parks engine-specific state: it serves only the shard
	// count it was built with, and every mismatch — sequential checkpoint with
	// a sharded scenario, sharded with a sequential, sharded with another
	// count — is the same clear error, not a silent from-scratch run.
	t.Run("checkpoint-engine-mismatch", func(t *testing.T) {
		seqCP, err := NewCheckpointContext(context.Background(), valid())
		if err != nil {
			t.Fatal(err)
		}
		sharded := valid()
		sharded.Shards = 2
		shCP, err := NewCheckpointContext(context.Background(), sharded)
		if err != nil {
			t.Fatal(err)
		}
		if shCP.Shards() != 2 {
			t.Fatalf("Shards() = %d, want 2", shCP.Shards())
		}
		other := valid()
		other.Shards = 3
		for _, c := range []struct {
			cp   *Checkpoint
			sc   Scenario
			want string
		}{
			{seqCP, sharded, "built with Shards=1 cannot run a Shards=2 scenario"},
			{shCP, valid(), "built with Shards=2 cannot run a Shards=1 scenario"},
			{shCP, other, "built with Shards=2 cannot run a Shards=3 scenario"},
		} {
			if _, err := c.cp.Run(c.sc); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("want error %q, got %v", c.want, err)
			}
		}
	})
}

// TestFingerprintIgnoresShards pins the cache-identity design: the shard
// count is an execution detail, so a sequential run's cached Result may stand
// in for a sharded one and vice versa.
func TestFingerprintIgnoresShards(t *testing.T) {
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 2}
	a, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("unfingerprintable")
	}
	sc.Shards = 8
	b, ok := sc.Fingerprint()
	if !ok {
		t.Fatal("sharded scenario unfingerprintable")
	}
	if a != b {
		t.Fatalf("fingerprint depends on shard count: %s vs %s", a, b)
	}
}

// TestSweepSharded runs a sweep with Shards>1 (full runs, no checkpoint) and
// checks each point against the sequential sweep.
func TestSweepSharded(t *testing.T) {
	base := Scenario{Graph: smallMesh(t), ISP: 5, Config: dampingCfg()}
	base.Config.Seed = 3
	pulses := []int{1, 2}
	want, err := SweepParallel(base, pulses, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 2
	got, err := SweepParallel(sharded, pulses, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pulses {
		if want[i].Result == nil || got[i].Result == nil {
			t.Fatalf("point %d missing result", i)
		}
		assertResultsEqual(t, want[i].Result, got[i].Result)
	}
}

// TestRunShardedTrace checks the user-facing trace log — flap-relative times,
// canonically equal to the sequential run's log — and that it is a by-product:
// a sharded Result is the sequential one, field for field, whether or not the
// run was traced and watched.
func TestRunShardedTrace(t *testing.T) {
	run := func(shards int, observed bool) (*Result, *trace.Log) {
		t.Helper()
		sc := Scenario{Graph: smallMesh(t), ISP: 7, Config: dampingCfg(), Pulses: 3, Shards: shards}
		sc.Config.Seed = 6
		var log *trace.Log
		if observed {
			log = trace.NewLog(0)
			sc.Trace = log
			sc.Watch = []PenaltyWatch{{Router: 7, Peer: 25}} // ISP watching the origin
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res, log
	}
	seq, seqLog := run(0, true)
	sh, shLog := run(2, true)
	if !reflect.DeepEqual(seq, sh) {
		assertResultsEqual(t, seq, sh)
		t.Errorf("traced and watched: sharded Result differs from sequential\nseq:   %+v\nshard: %+v", seq, sh)
	}
	if tr := sh.PenaltyTraces[PenaltyWatch{Router: 7, Peer: 25}]; tr.Len() == 0 || sh.Damped.Max() == 0 {
		t.Fatal("degenerate scenario: no watched penalty or no suppression recorded")
	}
	a, b := seqLog.Canonical(), shLog.Canonical()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace event %d differs:\nseq:   %+v\nshard: %+v", i, a[i], b[i])
		}
	}
	if len(a) > 0 && a[0].At < 0 {
		t.Fatalf("trace times not flap-relative: first at %v", a[0].At)
	}

	// Nothing requested: the shard networks observe no penalties and build
	// no trace, and the rest of the Result does not notice.
	seqBare, _ := run(0, false)
	shBare, _ := run(2, false)
	if !reflect.DeepEqual(seqBare, shBare) {
		assertResultsEqual(t, seqBare, shBare)
		t.Errorf("untraced: sharded Result differs from sequential\nseq:   %+v\nshard: %+v", seqBare, shBare)
	}
	shBare.PenaltyTraces = sh.PenaltyTraces
	if !reflect.DeepEqual(sh, shBare) {
		t.Errorf("sharded Result depends on Trace/Watch beyond PenaltyTraces")
	}
}
