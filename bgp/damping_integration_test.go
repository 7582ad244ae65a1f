package bgp

import (
	"testing"
	"time"

	"rfd/damping"
	"rfd/rcn"
	"rfd/sim"
	"rfd/topology"
)

// attachOrigin adds the paper's originAS to a base topology, linked to the
// router that plays ispAS, and returns (origin, isp).
func attachOrigin(t *testing.T, g *topology.Graph, isp topology.NodeID) (RouterID, RouterID) {
	t.Helper()
	origin := g.AddNode()
	if err := g.AddEdge(origin, isp); err != nil {
		t.Fatal(err)
	}
	if g.Annotated() {
		// The origin is a customer of its ISP.
		if err := g.SetRelationship(origin, isp, topology.RelProvider); err != nil {
			t.Fatal(err)
		}
	}
	return origin, isp
}

// pulse sends one withdrawal followed 60 s later by an announcement, then
// waits another 60 s, matching the paper's flapping interval (Section 5.1).
func pulse(t *testing.T, k *sim.Kernel, n *Network, origin RouterID) {
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

// dampedNet builds a damping-enabled network on a torus with an attached
// origin, converges it, and resets damping/counters (the paper's warm-up).
func dampedNet(t *testing.T, mutate func(*Config)) (*sim.Kernel, *Network, RouterID, RouterID) {
	t.Helper()
	g := mustTorus(t, 4, 4)
	origin, isp := attachOrigin(t, g, 0)
	k, n := buildNet(t, g, func(c *Config) {
		params := damping.Cisco()
		c.Damping = &params
		if mutate != nil {
			mutate(c)
		}
	})
	converge(t, k, n, origin)
	n.ResetDamping()
	n.ResetCounters()
	return k, n, origin, isp
}

func TestIspSuppressesAtThirdPulse(t *testing.T) {
	k, n, origin, isp := dampedNet(t, nil)
	pulse(t, k, n, origin)
	if isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("isp suppressed after 1 pulse")
	}
	pulse(t, k, n, origin)
	if isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("isp suppressed after 2 pulses")
	}
	pulse(t, k, n, origin)
	if !isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatalf("isp not suppressed after 3 pulses (penalty %v)",
			penaltyOf(n.Router(isp), origin, testPrefix, k.Now()))
	}
}

func TestMufflingIspWithdrawsWhenSuppressing(t *testing.T) {
	// Once ispAS suppresses the origin link it has no route, so it withdraws
	// and the whole network loses the destination (Section 4.3).
	k, n, origin, isp := dampedNet(t, nil)
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if !isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("setup: isp not suppressed")
	}
	// Give in-flight exploration time to settle, then check unreachability.
	if err := k.RunUntil(k.Now() + 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(isp).LocalRoute(testPrefix); ok {
		t.Fatal("isp still has a route while suppressing its only source")
	}
	for id := 0; id < n.NumRouters(); id++ {
		if RouterID(id) == origin {
			continue
		}
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); ok {
			t.Fatalf("router %d still reaches the origin during muffling", id)
		}
	}
}

func TestSuppressionBlocksFurtherFlaps(t *testing.T) {
	// After the origin link is suppressed, additional flaps must not leak
	// into the network (the intended behaviour, Section 3).
	k, n, origin, _ := dampedNet(t, nil)
	for i := 0; i < 4; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.RunUntil(k.Now() + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	before := n.Delivered()
	pulse(t, k, n, origin) // 5th pulse, arrives while suppressed
	// Only the origin->isp messages themselves are delivered; nothing
	// propagates beyond the isp.
	after := n.Delivered()
	if after-before > 2 {
		t.Fatalf("suppressed flap leaked %d updates into the network", after-before)
	}
}

func TestReuseEventuallyRestoresRoutes(t *testing.T) {
	k, n, origin, isp := dampedNet(t, nil)
	for i := 0; i < 5; i++ {
		pulse(t, k, n, origin)
	}
	// Drain everything: all reuse timers fire within the max hold-down.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("isp still suppressed after full drain")
	}
	for id := 0; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d has no route after reuse", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if n.DampedLinkCount() != 0 {
		t.Fatalf("%d links still suppressed after drain", n.DampedLinkCount())
	}
}

func TestFalseSuppressionFromPathExploration(t *testing.T) {
	// A single pulse must not suppress the origin link but must falsely
	// suppress links elsewhere (Mao et al., reproduced in Section 5.3: one
	// pulse damps hundreds of remote links on the mesh).
	k, n, origin, isp := dampedNet(t, nil)
	suppressedAny := 0
	n.SetHooks(Hooks{OnSuppress: func(_ time.Duration, _, _ RouterID, _ Prefix, on bool) {
		if on {
			suppressedAny++
		}
	}})
	pulse(t, k, n, origin)
	if isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("single pulse suppressed the origin link itself")
	}
	if suppressedAny == 0 {
		t.Fatal("single pulse caused no false suppression anywhere — path exploration broken?")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDampingDelaysConvergence(t *testing.T) {
	// The headline comparison: after a single pulse, the damped network
	// converges far later than the undamped one.
	run := func(withDamping bool) time.Duration {
		g := mustTorus(t, 4, 4)
		origin := g.AddNode()
		if err := g.AddEdge(origin, 0); err != nil {
			t.Fatal(err)
		}
		k, n := buildNet(t, g, func(c *Config) {
			if withDamping {
				params := damping.Cisco()
				c.Damping = &params
			}
		})
		converge(t, k, n, origin)
		n.ResetDamping()
		n.ResetCounters()
		n.Router(origin).StopOriginating(testPrefix)
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).Originate(testPrefix)
		flapEnd := k.Now()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return n.LastDelivery() - flapEnd
	}
	undamped := run(false)
	damped := run(true)
	if undamped > 5*time.Minute {
		t.Fatalf("undamped convergence %v unexpectedly slow", undamped)
	}
	if damped < 10*time.Minute {
		t.Fatalf("damped convergence %v; expected reuse-timer-scale delay (>=10m)", damped)
	}
}

func TestOnPenaltyAndOnSuppressHooks(t *testing.T) {
	k, n, origin, _ := dampedNet(t, nil)
	var penalties int
	onCount, offCount := 0, 0
	n.SetHooks(Hooks{
		OnPenalty: func(_ time.Duration, _, _ RouterID, _ Prefix, p float64) {
			if p <= 0 {
				t.Errorf("OnPenalty with non-positive penalty %v", p)
			}
			penalties++
		},
		OnSuppress: func(_ time.Duration, _, _ RouterID, _ Prefix, on bool) {
			if on {
				onCount++
			} else {
				offCount++
			}
		},
	})
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if penalties == 0 {
		t.Fatal("OnPenalty never fired")
	}
	if onCount == 0 {
		t.Fatal("OnSuppress(true) never fired")
	}
	if onCount != offCount {
		t.Fatalf("unbalanced suppression transitions: %d on, %d off", onCount, offCount)
	}
}

func TestOnReuseNoisySilentClassification(t *testing.T) {
	k, n, origin, _ := dampedNet(t, nil)
	noisy, silent := 0, 0
	n.SetHooks(Hooks{OnReuse: func(_ time.Duration, _, _ RouterID, _ Prefix, wasNoisy bool) {
		if wasNoisy {
			noisy++
		} else {
			silent++
		}
	}})
	// One pulse: remote false suppression with the destination reachable,
	// so some reuses must be noisy (they restore better paths).
	pulse(t, k, n, origin)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if noisy+silent == 0 {
		t.Fatal("no reuse events at all")
	}
	if noisy == 0 {
		t.Fatal("all reuses silent after a single pulse; expected noisy reuses")
	}
}

func TestRCNPreventsFalseSuppression(t *testing.T) {
	// Section 6.2: with RCN, a single flap charges each (peer, prefix) once
	// per root cause, so path exploration cannot falsely suppress anything.
	k, n, origin, _ := dampedNet(t, func(c *Config) {
		c.EnableRCN = true
	})
	suppressions := 0
	n.SetHooks(Hooks{OnSuppress: func(_ time.Duration, _, _ RouterID, _ Prefix, on bool) {
		if on {
			suppressions++
		}
	}})
	pulse(t, k, n, origin)
	pulse(t, k, n, origin)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if suppressions != 0 {
		t.Fatalf("%d false suppressions with RCN after 2 pulses", suppressions)
	}
}

func TestRCNStillSuppressesPersistentFlapping(t *testing.T) {
	// RCN must not break damping's core function: the origin link itself is
	// still suppressed at the 3rd pulse (each flap is a NEW root cause).
	k, n, origin, isp := dampedNet(t, func(c *Config) {
		c.EnableRCN = true
	})
	pulse(t, k, n, origin)
	pulse(t, k, n, origin)
	if isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("suppressed too early with RCN")
	}
	pulse(t, k, n, origin)
	if !isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("RCN damping failed to suppress the origin link at pulse 3")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRCNRemotePenaltyBounded(t *testing.T) {
	// With RCN each pulse contributes at most one withdrawal charge (1000)
	// plus one re-announcement charge (0 for Cisco) per (peer, prefix),
	// regardless of how many exploration updates arrive.
	k, n, origin, _ := dampedNet(t, func(c *Config) {
		c.EnableRCN = true
	})
	maxPenalty := 0.0
	n.SetHooks(Hooks{OnPenalty: func(_ time.Duration, r, _ RouterID, _ Prefix, p float64) {
		if r != RouterID(int(origin)) && r != 0 {
			// Remote routers only (not isp=0, not origin).
			if p > maxPenalty {
				maxPenalty = p
			}
		}
	}})
	pulse(t, k, n, origin)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxPenalty > 1000 {
		t.Fatalf("remote penalty reached %v with RCN after one pulse; want <= 1000", maxPenalty)
	}
}

func TestRCNFasterConvergenceThanClassicDamping(t *testing.T) {
	run := func(enableRCN bool) time.Duration {
		g := mustTorus(t, 4, 4)
		origin := g.AddNode()
		if err := g.AddEdge(origin, 0); err != nil {
			t.Fatal(err)
		}
		k, n := buildNet(t, g, func(c *Config) {
			params := damping.Cisco()
			c.Damping = &params
			c.EnableRCN = enableRCN
		})
		converge(t, k, n, origin)
		n.ResetDamping()
		n.ResetCounters()
		n.Router(origin).StopOriginating(testPrefix)
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).Originate(testPrefix)
		flapEnd := k.Now()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return n.LastDelivery() - flapEnd
	}
	classic := run(false)
	withRCN := run(true)
	if withRCN >= classic {
		t.Fatalf("RCN did not improve single-pulse convergence: classic %v, RCN %v", classic, withRCN)
	}
	if withRCN > 5*time.Minute {
		t.Fatalf("RCN convergence %v; should match undamped BGP scale", withRCN)
	}
}

func TestCiscoVsJuniperSuppressionOnset(t *testing.T) {
	// Juniper charges re-announcements 1000 with cutoff 3000, so the origin
	// link is suppressed during the 2nd pulse; Cisco needs the 3rd.
	run := func(params damping.Params) int {
		g := mustTorus(t, 4, 4)
		origin := g.AddNode()
		if err := g.AddEdge(origin, 0); err != nil {
			t.Fatal(err)
		}
		k, n := buildNet(t, g, func(c *Config) {
			c.Damping = &params
		})
		converge(t, k, n, origin)
		n.ResetDamping()
		for i := 1; i <= 10; i++ {
			n.Router(origin).StopOriginating(testPrefix)
			if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
				t.Fatal(err)
			}
			n.Router(origin).Originate(testPrefix)
			if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
				t.Fatal(err)
			}
			if isSuppressed(n.Router(0), origin, testPrefix) {
				return i
			}
		}
		return -1
	}
	if got := run(damping.Cisco()); got != 3 {
		t.Fatalf("Cisco suppression at pulse %d, want 3", got)
	}
	if got := run(damping.Juniper()); got != 2 {
		t.Fatalf("Juniper suppression at pulse %d, want 2", got)
	}
}

// TestResetDampingRevivesSuppressedRoute: ResetDamping makes a suppressed
// route usable without running the decision process, so the next reconcile
// for the prefix must consider it whichever RIB-IN entry triggered it, even
// one from a peer that is not the best and did not change. The muffled ispAS
// has no route while the origin's is suppressed; after the reset, a reconcile
// on behalf of a torus peer selects the origin's route.
func TestResetDampingRevivesSuppressedRoute(t *testing.T) {
	k, n, origin, isp := dampedNet(t, nil)
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.RunUntil(k.Now() + 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	r := n.Router(isp)
	if _, ok := r.LocalRoute(testPrefix); ok || !isSuppressed(r, origin, testPrefix) {
		t.Fatal("setup: isp not muffled by suppressing the origin")
	}
	n.ResetDamping()
	if !r.reconcile(r.slotOf(r.peers[0]), rcn.Cause{}) {
		t.Fatal("the reconcile after the reset changed nothing")
	}
	if best, ok := bestPeerOf(r, testPrefix); !ok || best != origin {
		t.Fatalf("isp selects (%d, %t) after the reset, want the origin's route", best, ok)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
