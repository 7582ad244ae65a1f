package experiment

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/faults"
)

// TestCheckpointRunMatchesRun is the warm-up amortization contract: running a
// scenario from a forked converged checkpoint yields a Result deeply equal to
// a from-scratch Run.
func TestCheckpointRunMatchesRun(t *testing.T) {
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg()}
	cp, err := NewCheckpointContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3} {
		sc := base
		sc.Pulses = n
		scratch, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := cp.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scratch, forked) {
			t.Fatalf("n=%d: checkpointed Run differs from scratch Run\nscratch: %+v\nforked:  %+v",
				n, scratch, forked)
		}
	}
}

// TestSweepParallelWorkerEquivalence: worker count is a scheduling detail and
// must not leak into results.
func TestSweepParallelWorkerEquivalence(t *testing.T) {
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg()}
	pulses := PulseRange(0, 3)
	one, err := SweepParallel(base, pulses, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := SweepParallel(base, pulses, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("sweep results differ between workers=1 and workers=8")
	}
}

// TestSweepMatchesStandaloneRuns: every sweep point must be deeply equal to a
// standalone Run of that pulse count — the fork amortization is invisible.
func TestSweepMatchesStandaloneRuns(t *testing.T) {
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg()}
	pulses := []int{0, 2}
	pts, err := SweepParallel(base, pulses, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range pulses {
		sc := base
		sc.Pulses = n
		want, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pts[i].Result, want) {
			t.Fatalf("sweep point n=%d differs from standalone Run", n)
		}
	}
}

// TestSweepImpairedMatchesStandaloneRuns covers the impairment path: a flight
// installs forks of the scenario's impairment model and never consumes it, so
// each sweep point sees exactly the stream a standalone Run would, and so does
// every Checkpoint.Run of the same scenario.
func TestSweepImpairedMatchesStandaloneRuns(t *testing.T) {
	mkImpair := func() *faults.Impairments {
		imp := faults.NewImpairments(3)
		if err := imp.SetDefault(faults.Profile{Loss: 0.02}); err != nil {
			t.Fatal(err)
		}
		return imp
	}
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Impair: mkImpair()}
	pulses := []int{1, 2}
	pts, err := SweepParallel(base, pulses, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range pulses {
		sc := base
		sc.Pulses = n
		sc.Impair = mkImpair() // fresh stream, same position a fork would have
		want, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pts[i].Result, want) {
			t.Fatalf("impaired sweep point n=%d differs from standalone Run", n)
		}
	}
	cp, err := NewCheckpointContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	sc := base
	sc.Pulses = 2
	for run := 1; run <= 2; run++ {
		res, err := cp.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, pts[1].Result) {
			t.Fatalf("Checkpoint.Run #%d of the sweep's scenario differs from its n=2 point", run)
		}
	}
}

func TestPulseRangeEdgeCases(t *testing.T) {
	if got := PulseRange(2, 1); got != nil {
		t.Fatalf("PulseRange(2,1) = %v, want nil", got)
	}
	if got := PulseRange(3, 3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("PulseRange(3,3) = %v, want [3]", got)
	}
	if got := PulseRange(-2, 0); len(got) != 3 || got[0] != -2 || got[2] != 0 {
		t.Fatalf("PulseRange(-2,0) = %v", got)
	}
}

// TestFingerprint: a key is stable across calls, moves with every field it
// hashes — each row changes one and must key apart from the base and from
// every other row — and is refused to a scenario whose run depends on state
// outside those fields.
func TestFingerprint(t *testing.T) {
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 2}
	k1, ok := base.Fingerprint()
	if !ok {
		t.Fatal("plain scenario should be fingerprintable")
	}
	if k2, ok := base.Fingerprint(); !ok || k1 != k2 {
		t.Fatal("fingerprint not stable across calls")
	}

	damp := func(set func(*damping.Params)) func(*Scenario) {
		return func(sc *Scenario) {
			d := *sc.Config.Damping
			set(&d)
			sc.Config.Damping = &d
		}
	}
	keys := map[string]string{k1: "base"}
	for _, row := range []struct {
		field  string
		mutate func(*Scenario)
	}{
		{"graph edge", func(sc *Scenario) {
			sc.Graph = sc.Graph.Clone()
			if err := sc.Graph.AddEdge(0, 12); err != nil {
				t.Fatal(err)
			}
		}},
		{"isp", func(sc *Scenario) { sc.ISP = 1 }},
		{"flap interval", func(sc *Scenario) { sc.FlapInterval = 2 * DefaultFlapInterval }},
		{"flap via link", func(sc *Scenario) { sc.FlapViaLink = true }},
		{"check", func(sc *Scenario) { sc.Check = true }},
		{"policy", func(sc *Scenario) { sc.Config.Policy = bgp.NoValley }},
		{"rcn", func(sc *Scenario) { sc.Config.EnableRCN = true }},
		{"selective damping", func(sc *Scenario) { sc.Config.SelectiveDamping = true }},
		{"mrai", func(sc *Scenario) { sc.Config.MRAI += time.Second }},
		{"seed", func(sc *Scenario) { sc.Config.Seed = 99 }},
		{"withdrawal penalty", damp(func(d *damping.Params) { d.WithdrawalPenalty++ })},
		{"reannouncement penalty", damp(func(d *damping.Params) { d.ReannouncementPenalty++ })},
		{"attribute change penalty", damp(func(d *damping.Params) { d.AttrChangePenalty++ })},
		{"cutoff threshold", damp(func(d *damping.Params) { d.CutoffThreshold++ })},
		{"reuse threshold", damp(func(d *damping.Params) { d.ReuseThreshold++ })},
		{"half-life", damp(func(d *damping.Params) { d.HalfLife += time.Second })},
		{"max hold-down", damp(func(d *damping.Params) { d.MaxHoldDown += time.Second })},
		{"watch", func(sc *Scenario) { sc.Watch = []PenaltyWatch{{Router: 1, Peer: 2}} }},
		{"no series", func(sc *Scenario) { sc.NoSeries = true }},
		{"pulses", func(sc *Scenario) { sc.Pulses = 3 }},
	} {
		t.Run(row.field, func(t *testing.T) {
			sc := base
			row.mutate(&sc)
			k, ok := sc.Fingerprint()
			if !ok {
				t.Fatal("scenario not fingerprintable")
			}
			if prev, dup := keys[k]; dup {
				t.Fatalf("%s not part of the fingerprint: keys like %s", row.field, prev)
			}
			keys[k] = row.field
		})
	}

	uncacheable := base
	uncacheable.Impair = faults.NewImpairments(1)
	if _, ok := uncacheable.Fingerprint(); ok {
		t.Fatal("impaired scenario must not be fingerprintable")
	}
}

func TestRunCacheHitsAndSharing(t *testing.T) {
	c := NewRunCache()
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 1}
	first, err := c.RunContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.RunContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("cache hit returned a different Result pointer")
	}
	if hits, misses, unc := c.Stats(); hits != 1 || misses != 1 || unc != 0 {
		t.Fatalf("stats = %d hits %d misses %d uncacheable, want 1/1/0", hits, misses, unc)
	}

	// An uncacheable scenario runs every time and is counted as such.
	imp := sc
	imp.Impair = faults.NewImpairments(1)
	if _, err := c.RunContext(context.Background(), imp); err != nil {
		t.Fatal(err)
	}
	if _, _, unc := c.Stats(); unc != 1 {
		t.Fatalf("uncacheable count = %d, want 1", unc)
	}
}

func TestRunCacheSingleflight(t *testing.T) {
	c := NewRunCache()
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 1}
	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.RunContext(context.Background(), sc)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if _, misses, _ := c.Stats(); misses != 1 {
		t.Fatalf("concurrent identical runs executed %d times, want 1", misses)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different Result pointers")
		}
	}
}

func TestRunCacheSweepReuse(t *testing.T) {
	c := NewRunCache()
	base := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg()}
	first, err := c.Sweep(base, PulseRange(0, 3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("first sweep: %d hits %d misses, want 0/4", hits, misses)
	}
	// Overlapping second sweep: 0..3 served from cache, 4..5 executed.
	second, err := c.Sweep(base, PulseRange(0, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := c.Stats(); hits != 4 || misses != 6 {
		t.Fatalf("second sweep: %d hits %d misses, want 4/6", hits, misses)
	}
	for i := range first {
		if second[i].Result != first[i].Result {
			t.Fatalf("cached sweep point n=%d not shared", first[i].Pulses)
		}
	}
	// Cached sweep results equal an uncached SweepParallel.
	plain, err := SweepParallel(base, PulseRange(0, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, plain) {
		t.Fatal("cached sweep differs from plain SweepParallel")
	}
}

// TestRunCacheSweepErrorUnblocksWaiters: a failing sweep must fill its claimed
// entries so later (or concurrent) requests see the error instead of blocking
// forever on a result that will never arrive.
func TestRunCacheSweepErrorUnblocksWaiters(t *testing.T) {
	c := NewRunCache()
	bad := Scenario{Graph: smallMesh(t), ISP: 999, Config: dampingCfg()}
	if _, err := c.Sweep(bad, []int{0, 1}, 2); err == nil {
		t.Fatal("sweep swallowed run error")
	}
	// Re-requesting the same points must return the cached error promptly,
	// not deadlock. A test timeout here is the failure signal.
	if _, err := c.Sweep(bad, []int{0, 1}, 2); err == nil {
		t.Fatal("second sweep of failed points returned no error")
	}
	if _, err := c.RunContext(context.Background(), bad); err == nil {
		t.Fatal("cached failed point returned no error from Run")
	}
}

func TestNilRunCacheBypasses(t *testing.T) {
	var c *RunCache
	sc := Scenario{Graph: smallMesh(t), ISP: 0, Config: dampingCfg(), Pulses: 1}
	res, err := c.RunContext(context.Background(), sc)
	if err != nil || res == nil {
		t.Fatalf("nil cache Run = (%v, %v)", res, err)
	}
	pts, err := c.Sweep(sc, []int{0, 1}, 2)
	if err != nil || len(pts) != 2 {
		t.Fatalf("nil cache Sweep = (%v, %v)", pts, err)
	}
	if h, m, u := c.Stats(); h != 0 || m != 0 || u != 0 {
		t.Fatal("nil cache Stats should be zero")
	}
}
