package check

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rfd/bgp"
	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
)

const testPrefix = bgp.Prefix("origin/8")

// buildDamped assembles the paper's standard harness: a 3x3 torus with an
// attached origin, Cisco damping everywhere, converged and with damping and
// counters reset (the warm-up the experiment package performs before it
// attaches a checker).
func buildDamped(t *testing.T, mutate func(*bgp.Config)) (*sim.Kernel, *bgp.Network, bgp.RouterID, bgp.RouterID) {
	t.Helper()
	g, err := topology.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	isp := topology.NodeID(0)
	origin := g.AddNode()
	if err := g.AddEdge(origin, isp); err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	params := damping.Cisco()
	cfg.Damping = &params
	if mutate != nil {
		mutate(&cfg)
	}
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := bgp.NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Router(origin).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.ResetDamping()
	n.ResetCounters()
	return k, n, origin, isp
}

// pulse is one (withdrawal, announcement) flap at the paper's 60 s interval.
func pulse(t *testing.T, k *sim.Kernel, n *bgp.Network, origin bgp.RouterID) {
	t.Helper()
	n.Router(origin).StopOriginating(testPrefix)
	if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	n.Router(origin).Originate(testPrefix)
	if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
}

func attach(t *testing.T, n *bgp.Network, origin, isp bgp.RouterID) *Checker {
	t.Helper()
	chk, err := Attach(n, Options{ISP: isp, Origin: origin, Prefix: testPrefix})
	if err != nil {
		t.Fatal(err)
	}
	return chk
}

// TestCleanRunPassesChecked drives the paper's three-pulse suppression
// scenario under the checker and expects zero violations — including the
// replay and analytic cross-checks over a stream that really did suppress.
func TestCleanRunPassesChecked(t *testing.T) {
	k, n, origin, isp := buildDamped(t, nil)
	chk := attach(t, n, origin, isp)
	defer chk.Detach()

	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	suppressed := false
	n.Router(isp).EachRIBIn(k.Now(), func(v bgp.RIBInView) {
		suppressed = suppressed || v.Peer == origin && v.Prefix == testPrefix && v.Suppressed
	})
	if !suppressed {
		t.Fatal("scenario did not suppress; checker run is not exercising damping")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rep := chk.Finish()
	if err := rep.Err(); err != nil {
		t.Fatalf("clean run reported violations:\n%v", err)
	}
	if rep.Events == 0 || rep.Updates == 0 || rep.Streams == 0 {
		t.Fatalf("checker observed nothing: %v", rep)
	}
}

// TestCleanRunPassesCheckedRCN and ...Selective exercise the oracle's
// replication of the two penalty-filter variants.
func TestCleanRunPassesCheckedRCN(t *testing.T) {
	k, n, origin, isp := buildDamped(t, func(c *bgp.Config) { c.EnableRCN = true })
	chk := attach(t, n, origin, isp)
	defer chk.Detach()
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Finish().Err(); err != nil {
		t.Fatalf("clean RCN run reported violations:\n%v", err)
	}
}

func TestCleanRunPassesCheckedSelective(t *testing.T) {
	k, n, origin, isp := buildDamped(t, func(c *bgp.Config) { c.SelectiveDamping = true })
	chk := attach(t, n, origin, isp)
	defer chk.Detach()
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Finish().Err(); err != nil {
		t.Fatalf("clean selective run reported violations:\n%v", err)
	}
}

// TestSeededChargeDetected mutates the engine's live damping state behind its
// back — an extra withdrawal charge the protocol never saw — and requires the
// differential oracle to flag the divergence with a diagnosis naming the
// event, the router and the invariant.
func TestSeededChargeDetected(t *testing.T) {
	k, n, origin, isp := buildDamped(t, nil)
	chk := attach(t, n, origin, isp)
	defer chk.Detach()

	pulse(t, k, n, origin)

	st := n.Router(isp).DebugDampingState(origin, testPrefix)
	if st == nil {
		t.Fatal("no damping state at isp after a pulse")
	}
	p, _ := n.Router(isp).DampingParams()
	st.Update(damping.NewRules(p), k.Now(), damping.KindWithdrawal, true) // the seeded fault

	pulse(t, k, n, origin)
	rep := chk.Finish()
	v, ok := findViolation(rep, isp, "damping-oracle")
	if !ok {
		t.Fatalf("seeded charge not detected; report: %v\n%v", rep, rep.Err())
	}
	if v.Event == "" || v.Event == "(external)" {
		t.Fatalf("violation does not name a kernel event: %q", v.Event)
	}
	if !strings.Contains(v.Detail, "penalty") {
		t.Fatalf("diagnosis does not describe the penalty divergence: %q", v.Detail)
	}
	if got := v.String(); !strings.Contains(got, "router 0") || !strings.Contains(got, "damping-oracle") {
		t.Fatalf("rendered violation lacks router or invariant: %q", got)
	}
}

// TestSeededSuppressionSkipDetected clears a suppressed state behind the
// engine's back — the equivalent of a router forgetting it suppressed a route
// while its reuse timer is still pending — and requires both the structural
// reuse-timer invariant and the oracle to fire.
func TestSeededSuppressionSkipDetected(t *testing.T) {
	k, n, origin, isp := buildDamped(t, nil)
	chk := attach(t, n, origin, isp)
	defer chk.Detach()

	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	st := n.Router(isp).DebugDampingState(origin, testPrefix)
	if st == nil || !st.Suppressed() {
		t.Fatal("isp not suppressed after three pulses")
	}
	st.Reset() // the seeded fault: suppression vanishes, the reuse timer does not

	// Any subsequent activity makes the next sweep see the inconsistency.
	n.Router(origin).StopOriginating(testPrefix)
	if err := k.RunUntil(k.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	rep := chk.Report()
	if _, ok := findViolation(rep, isp, "reuse-timer"); !ok {
		t.Fatalf("reuse-timer inconsistency not detected; report: %v\n%v", rep, rep.Err())
	}
	if _, ok := findViolation(rep, isp, "damping-oracle"); !ok {
		t.Fatalf("oracle did not flag the vanished suppression; report: %v\n%v", rep, rep.Err())
	}
}

// TestDetachRestoresObservers verifies LIFO-safe chaining: whatever trace,
// after-event and debug hooks were installed before Attach are back after
// Detach, and chained ones keep firing while attached.
func TestDetachRestoresObservers(t *testing.T) {
	k, n, origin, isp := buildDamped(t, nil)

	traced := 0
	k.SetTrace(func(time.Duration, string) { traced++ })
	delivered := 0
	n.SetDebugHooks(bgp.DebugHooks{OnDeliver: func(time.Duration, bgp.Message) { delivered++ }})

	chk := attach(t, n, origin, isp)
	pulse(t, k, n, origin)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if traced == 0 {
		t.Fatal("chained trace observer stopped firing under the checker")
	}
	if delivered == 0 {
		t.Fatal("chained debug hook stopped firing under the checker")
	}
	if err := chk.Finish().Err(); err != nil {
		t.Fatal(err)
	}
	chk.Detach()
	chk.Detach() // idempotent

	if k.Trace() == nil {
		t.Fatal("Detach did not restore the previous trace observer")
	}
	if k.AfterEvent() != nil {
		t.Fatal("Detach did not restore the previous after-event observer")
	}
	if h := n.DebugHooks(); h.OnDeliver == nil || h.OnUpdate != nil {
		t.Fatal("Detach did not restore the previous debug hooks")
	}
}

func findViolation(rep *Report, router bgp.RouterID, invariant string) (Violation, bool) {
	for _, v := range rep.Violations {
		if v.Router == router && v.Invariant == invariant {
			return v, true
		}
	}
	return Violation{}, false
}

// flapHead and flapRest split the three-pulse scenario halfway into the second
// withdrawal, while its updates are in flight: the instant the fork tests cut
// the checked network in two.
func flapHead(t *testing.T, k *sim.Kernel, n *bgp.Network, origin bgp.RouterID) {
	t.Helper()
	pulse(t, k, n, origin)
	n.Router(origin).StopOriginating(testPrefix)
	if err := k.RunUntil(k.Now() + 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func flapRest(t *testing.T, k *sim.Kernel, n *bgp.Network, origin bgp.RouterID) {
	t.Helper()
	if err := k.RunUntil(k.Now() + 30*time.Second); err != nil {
		t.Fatal(err)
	}
	n.Router(origin).Originate(testPrefix)
	if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	pulse(t, k, n, origin)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// checked is one copy of a checked network.
type checked struct {
	k   *sim.Kernel
	n   *bgp.Network
	chk *Checker
}

// forkChecked runs flapHead under a checker, then forks the network and the
// checker mid-flap: copies[0] is the original, copies[1] the fork.
func forkChecked(t *testing.T) (copies [2]checked, origin, isp bgp.RouterID) {
	t.Helper()
	k, n, origin, isp := buildDamped(t, nil)
	chk := attach(t, n, origin, isp)
	flapHead(t, k, n, origin)
	k2, n2, err := n.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return [2]checked{{k, n, chk}, {k2, n2, chk.Fork(n2)}}, origin, isp
}

// TestForkMatchesUnforkedRun: a checker forked mid-flap with its network
// certifies both copies as if each had been checked from the start — each
// drained copy's report equals an unforked checked run's, counters included.
func TestForkMatchesUnforkedRun(t *testing.T) {
	k, n, origin, isp := buildDamped(t, nil)
	ref := attach(t, n, origin, isp)
	flapHead(t, k, n, origin)
	flapRest(t, k, n, origin)
	want := ref.Finish()
	if err := want.Err(); err != nil {
		t.Fatal(err)
	}

	copies, origin, _ := forkChecked(t)
	orig, fork := copies[0], copies[1]
	flapRest(t, fork.k, fork.n, origin) // the fork drains first: it must not disturb the original
	flapRest(t, orig.k, orig.n, origin)
	for i, c := range copies {
		if got := c.chk.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("copy %d: report %v differs from the unforked run's %v", i, got, want)
		}
	}
	fork.chk.Detach()
	if fork.k.Trace() != nil || fork.k.AfterEvent() != nil || fork.n.DebugHooks().OnUpdate != nil {
		t.Error("Detach of the fork left observers on the forked network")
	}
	if orig.k.AfterEvent() == nil {
		t.Error("Detach of the fork removed the original checker's observers")
	}
}

// TestForkIsolatesViolations: a penalty corrupted on one copy after the fork
// is reported by that copy's checker only.
func TestForkIsolatesViolations(t *testing.T) {
	for bad, name := range []string{"original", "fork"} {
		t.Run(name, func(t *testing.T) {
			copies, origin, isp := forkChecked(t)
			c := copies[bad]
			st := c.n.Router(isp).DebugDampingState(origin, testPrefix)
			if st == nil {
				t.Fatal("no damping state at isp mid-flap")
			}
			p, _ := c.n.Router(isp).DampingParams()
			st.Update(damping.NewRules(p), c.k.Now(), damping.KindWithdrawal, true) // the seeded fault
			for _, c := range copies {
				flapRest(t, c.k, c.n, origin)
			}
			rep := c.chk.Finish()
			if _, ok := findViolation(rep, isp, "damping-oracle"); !ok {
				t.Errorf("corrupted %s: no damping-oracle violation; report %v", name, rep)
			}
			if err := copies[1-bad].chk.Finish().Err(); err != nil {
				t.Errorf("the other copy reported the corruption:\n%v", err)
			}
		})
	}
}
