package faults

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
)

const testPrefix = bgp.Prefix("origin/8")

// buildNet constructs a 4×4 torus network with Cisco damping on a fresh
// kernel, built with opts after the seed.
func buildNet(t testing.TB, seed uint64, opts ...sim.Option) (*sim.Kernel, *bgp.Network) {
	t.Helper()
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	cfg.Seed = seed
	params := damping.Cisco()
	cfg.Damping = &params
	k := sim.NewKernel(append([]sim.Option{sim.WithSeed(seed)}, opts...)...)
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

// funcs schedules closures on one kernel for tests. It is a single
// sim.Handler whose arg indexes the closure to run, so the closures scheduled
// through it under one name share one event kind.
type funcs struct {
	k   *sim.Kernel
	fns []func()
}

func newFuncs(k *sim.Kernel) *funcs { return &funcs{k: k} }

func (f *funcs) HandleEvent(arg uint64) { f.fns[arg]() }

// At schedules fn at absolute virtual time at.
func (f *funcs) At(at time.Duration, name string, fn func()) sim.Timer {
	f.fns = append(f.fns, fn)
	return f.k.AtHandler(at, name, f, uint64(len(f.fns)-1))
}

// gauntletPlan is the fault mix of the determinism test: a link flap, a
// session reset, a router crash/restart, and a burst-loss window.
func gauntletPlan() *Plan {
	return NewPlan(
		FlapLink(10*time.Second, 0, 1, 5*time.Second),
		ResetSession(30*time.Second, 1, 2),
		CrashRouter(50*time.Second, 5, 20*time.Second),
		NetworkLoss(70*time.Second, 10*time.Second, 1),
	)
}

// runGauntlet executes one full faulty run — warm-up, impairments (2% loss,
// 5 ms jitter), the gauntlet plan, an origination flap, watchdog drain — and
// returns the kernel's complete event trace plus headline counters.
func runGauntlet(t testing.TB, seed uint64) (trace string, delivered, dropped uint64, rep *Report) {
	t.Helper()
	k, n := buildNet(t, seed)
	fs := newFuncs(k)
	var sb strings.Builder
	k.SetTrace(func(at time.Duration, name string) {
		fmt.Fprintf(&sb, "%d %s\n", at, name)
	})
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()
	n.ResetCounters()

	imp := NewImpairments(seed)
	if err := imp.SetDefault(Profile{Loss: 0.02, MaxJitter: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.SetImpairment(imp)
	if err := gauntletPlan().Apply(n, k.Now(), imp); err != nil {
		t.Fatal(err)
	}
	// One origination flap rides on top of the faults.
	epoch := k.Now()
	fs.At(epoch+20*time.Second, "test.flapdown", func() { n.Router(0).StopOriginating(testPrefix) })
	fs.At(epoch+40*time.Second, "test.flapup", func() { n.Router(0).Originate(testPrefix) })

	rep = Watch(context.Background(), n)
	return sb.String(), n.Delivered(), n.Dropped(), rep
}

func TestDeterministicFaultTraces(t *testing.T) {
	// Acceptance: the same seed and the same Plan must yield byte-identical
	// event traces across two runs — with loss, jitter, a session reset and
	// a router crash/restart all in play.
	trace1, delivered1, dropped1, rep1 := runGauntlet(t, 7)
	trace2, delivered2, dropped2, rep2 := runGauntlet(t, 7)
	if trace1 != trace2 {
		t.Fatalf("traces differ between identical runs (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if delivered1 != delivered2 || dropped1 != dropped2 {
		t.Fatalf("counters differ: delivered %d/%d, dropped %d/%d", delivered1, delivered2, dropped1, dropped2)
	}
	if rep1.Outcome != rep2.Outcome || rep1.Events != rep2.Events {
		t.Fatalf("reports differ: %s vs %s", rep1, rep2)
	}
	if dropped1 == 0 {
		t.Fatal("gauntlet dropped no messages; the impairment model is not wired in")
	}
	if rep1.Events == 0 {
		t.Fatal("watchdog stepped no events")
	}
	// A different seed must actually change the run (the RNG is live).
	trace3, _, _, _ := runGauntlet(t, 8)
	if trace1 == trace3 {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestPlanApplyFaultSequence(t *testing.T) {
	// The plan's faults must leave observable footprints: session churn
	// charges damping at the reset peers, the crash withdraws routes, and
	// the run ends consistent (converged) because the loss window is the
	// only lossy impairment and it ends before the final exchanges.
	k, n := buildNet(t, 1)
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()
	n.ResetCounters()
	plan := NewPlan(
		ResetSession(10*time.Second, 1, 2),
		CrashRouter(30*time.Second, 5, 20*time.Second),
	)
	if err := plan.Apply(n, k.Now(), nil); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(k.Now() + 15*time.Second); err != nil {
		t.Fatal(err)
	}
	var p float64
	n.Router(1).EachRIBIn(k.Now(), func(v bgp.RIBInView) {
		if v.Peer == 2 && v.Prefix == testPrefix {
			p = v.Penalty
		}
	})
	if p <= 0 {
		t.Fatalf("no damping charge at router 1 after session reset (penalty %v)", p)
	}
	if err := k.RunUntil(k.Now() + 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if n.RouterUp(5) {
		t.Fatal("router 5 up during its crash window")
	}
	rep := Watch(context.Background(), n)
	if rep.Outcome != Converged {
		t.Fatalf("outcome = %s, want converged", rep)
	}
	if !n.RouterUp(5) {
		t.Fatal("router 5 never restarted")
	}
	if _, ok := n.Router(5).LocalRoute(testPrefix); !ok {
		t.Fatal("restarted router never relearned the route")
	}
}

func TestPlanValidate(t *testing.T) {
	_, n := buildNet(t, 1)
	cases := []struct {
		name string
		plan *Plan
	}{
		{"negative time", NewPlan(Event{At: -time.Second, Kind: KindLinkDown, A: 0, B: 1})},
		{"unknown link", NewPlan(FailLink(0, 0, 15))},
		{"unknown router", NewPlan(CrashRouter(0, 99, 0))},
		{"bad rate", NewPlan(NetworkLoss(0, time.Second, 1.5))},
		{"zero window", NewPlan(NetworkLoss(0, 0, 0.5))},
		{"unknown kind", NewPlan(Event{Kind: Kind(42)})},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(n); err == nil {
			t.Errorf("%s: Validate accepted the plan", tc.name)
		}
	}
	ok := gauntletPlan()
	if err := ok.Validate(n); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	// A loss window without an impairment model cannot be applied.
	if err := ok.Apply(n, n.Kernel().Now(), nil); err == nil {
		t.Fatal("Apply accepted a loss window without an impairment model")
	}
}

// TestPlanApplyAllOrNothing: a plan Apply refuses schedules nothing, even when
// the events it refuses over come after ones it could have scheduled.
func TestPlanApplyAllOrNothing(t *testing.T) {
	k, n := buildNet(t, 1)
	n.Router(0).Originate(testPrefix)
	pending := k.Pending()
	plan := NewPlan(
		FlapLink(10*time.Second, 0, 1, 5*time.Second),
		CrashRouter(20*time.Second, 5, 10*time.Second),
		NetworkLoss(30*time.Second, 10*time.Second, 1),
	)
	if err := plan.Apply(n, k.Now(), nil); err == nil {
		t.Fatal("Apply accepted a loss window without an impairment model")
	}
	if k.Pending() != pending {
		t.Fatalf("a refused Apply left %d events scheduled", k.Pending()-pending)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	const text = `
# fault plan
10s  flap 3 4 5s
20s  down 1 2
80s  up   1 2     # restore
30s  reset 3 4
40s  crash 7 15s
45s  crash 8
55s  restart 7
0s   loss 60s 0.01
0s   loss 60s 1 3 4
`
	plan, err := ParsePlan(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := NewPlan(
		FlapLink(10*time.Second, 3, 4, 5*time.Second),
		FailLink(20*time.Second, 1, 2),
		RestoreLink(80*time.Second, 1, 2),
		ResetSession(30*time.Second, 3, 4),
		CrashRouter(40*time.Second, 7, 15*time.Second),
		CrashRouter(45*time.Second, 8, 0),
		RestartRouter(55*time.Second, 7),
		NetworkLoss(0, 60*time.Second, 0.01),
		LinkLoss(0, 60*time.Second, 1, 3, 4),
	)
	if len(plan.Events) != len(want.Events) {
		t.Fatalf("parsed %d events, want %d", len(plan.Events), len(want.Events))
	}
	for i := range want.Events {
		if plan.Events[i] != want.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, plan.Events[i], want.Events[i])
		}
	}
	for _, bad := range []string{
		"10s explode 1 2",
		"abc down 1 2",
		"10s down 1",
		"10s crash x",
		"10s loss 60s nope",
		"10s flap 1 2",
	} {
		if _, err := ParsePlan(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePlan accepted %q", bad)
		}
	}
}

func TestImpairmentProfilesAndWindows(t *testing.T) {
	im := NewImpairments(1)
	if err := im.SetDefault(Profile{Loss: 1.5}); err == nil {
		t.Fatal("accepted loss > 1")
	}
	if err := im.SetDefault(Profile{MaxJitter: -time.Second}); err == nil {
		t.Fatal("accepted negative jitter")
	}
	// Perfect default: nothing dropped, no jitter.
	for i := 0; i < 100; i++ {
		if drop, jitter := im.Impair(0, 0, 1); drop || jitter != 0 {
			t.Fatal("perfect link impaired a message")
		}
	}
	// Burst window on 0→1 only, during [10s, 20s).
	im.AddWindow(10*time.Second, 20*time.Second, 1, 0, 1)
	if drop, _ := im.Impair(5*time.Second, 0, 1); drop {
		t.Fatal("window fired before its start")
	}
	if drop, _ := im.Impair(15*time.Second, 1, 0); drop {
		t.Fatal("window fired on the reverse direction")
	}
	if drop, _ := im.Impair(15*time.Second, 0, 1); !drop {
		t.Fatal("burst window did not drop")
	}
	if drop, _ := im.Impair(20*time.Second, 0, 1); drop {
		t.Fatal("window fired at its (exclusive) end")
	}
	// Jitter-only profile: nothing dropped, jitter bounded.
	if err := im.SetDefault(Profile{MaxJitter: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		drop, jitter := im.Impair(0, 2, 3)
		if drop {
			t.Fatal("jitter-only profile dropped")
		}
		if jitter < 0 || jitter >= 10*time.Millisecond {
			t.Fatalf("jitter %v outside [0, 10ms)", jitter)
		}
	}
}
