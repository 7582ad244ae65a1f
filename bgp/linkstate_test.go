package bgp

import (
	"testing"
	"time"

	"rfd/damping"
	"rfd/rcn"
	"rfd/topology"
)

func TestSetLinkStateValidation(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 3), nil)
	_ = k
	if err := n.SetLinkState(0, 2, false); err == nil {
		t.Fatal("nonexistent link accepted")
	}
	if !n.SessionUp(0, 1) {
		t.Fatal("fresh link reported down")
	}
	if n.SessionUp(0, 2) {
		t.Fatal("nonexistent link reported up")
	}
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if n.SessionUp(0, 1) || n.SessionUp(1, 0) {
		t.Fatal("failed link reported up")
	}
	// Idempotent.
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if !n.SessionUp(0, 1) {
		t.Fatal("restored link reported down")
	}
}

func TestLinkFailureWithdrawsRoutes(t *testing.T) {
	// Line 0-1-2: failing 0-1 must make 1 and 2 lose the route to 0.
	k, n := buildNet(t, mustLine(t, 3), nil)
	converge(t, k, n, 0)
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); ok {
			t.Fatalf("router %d kept a route across the failed link", id)
		}
	}
	// The origin still has its own route.
	if _, ok := n.Router(0).LocalRoute(testPrefix); !ok {
		t.Fatal("origin lost its own route")
	}
}

func TestLinkRecoveryRestoresRoutes(t *testing.T) {
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	converge(t, k, n, 0)
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The torus stays connected, so everyone still reaches 0.
	for id := 1; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d lost the route despite alternate paths", id)
		}
	}
	// Router 1 must not be using the failed session.
	if peer, _ := bestPeerOf(n.Router(1), testPrefix); peer == 0 {
		t.Fatal("router 1 still routes via the failed link")
	}
	if err := n.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// After recovery, 1's best is the direct link again.
	if peer, _ := bestPeerOf(n.Router(1), testPrefix); peer != 0 {
		t.Fatalf("router 1 best peer = %d after recovery, want 0", peer)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMessagesLostOnFailedLink(t *testing.T) {
	// Fail the link, then flap the origin: no deliveries may cross it.
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	converge(t, k, n, 0)
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.SetHooks(Hooks{OnDeliver: func(_ time.Duration, m Message) {
		if (m.From == 0 && m.To == 1) || (m.From == 1 && m.To == 0) {
			t.Errorf("message crossed failed link: %s", m)
		}
	}})
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInFlightMessagesLostWhenLinkFails(t *testing.T) {
	// Withdraw (messages go in flight), then immediately fail a link before
	// the kernel runs: the in-flight deliveries on that link must be lost,
	// and the network must still converge consistently.
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	converge(t, k, n, 0)
	n.Router(0).StopOriginating(testPrefix)
	if err := n.SetLinkState(5, 6, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkFlapChargesDamping(t *testing.T) {
	// Flapping the origin link directly (instead of toggling origination)
	// must drive the neighbor's damping penalty just the same: suppressed
	// at the 3rd cycle with Cisco parameters.
	g := mustTorus(t, 4, 4)
	origin, isp := attachOrigin(t, g, 0)
	k, n := buildNet(t, g, func(c *Config) {
		params := damping.Cisco()
		c.Damping = &params
	})
	converge(t, k, n, origin)
	n.ResetDamping()
	for i := 0; i < 3; i++ {
		if err := n.SetLinkState(origin, isp, false); err != nil {
			t.Fatal(err)
		}
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := n.SetLinkState(origin, isp, true); err != nil {
			t.Fatal(err)
		}
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatalf("isp not suppressed after 3 link flaps (penalty %v)",
			penaltyOf(n.Router(isp), origin, testPrefix, k.Now()))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkFlapGeneratesCauses(t *testing.T) {
	// With RCN, link events must stamp updates with the detecting node's
	// link cause, sequence increasing per event.
	g := mustTorus(t, 4, 4)
	origin, isp := attachOrigin(t, g, 0)
	k, n := buildNet(t, g, func(c *Config) {
		params := damping.Cisco()
		c.Damping = &params
		c.EnableRCN = true
	})
	converge(t, k, n, origin)
	n.ResetDamping()
	causes := make(map[rcn.Cause]bool)
	n.SetHooks(Hooks{OnDeliver: func(_ time.Duration, m Message) {
		if !m.Cause.IsZero() {
			causes[m.Cause] = true
		}
	}})
	if err := n.SetLinkState(origin, isp, false); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(origin, isp, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var downSeen, upSeen bool
	for c := range causes {
		// The cause names the flapping link from the detecting side.
		if (c.U == int(origin) && c.V == int(isp)) || (c.U == int(isp) && c.V == int(origin)) {
			switch c.Status {
			case rcn.LinkDown:
				downSeen = true
			case rcn.LinkUp:
				upSeen = true
			}
		} else {
			t.Errorf("cause %s names a link other than the flapping one", c)
		}
	}
	if !downSeen || !upSeen {
		t.Fatalf("missing link causes: down=%t up=%t (%d causes)", downSeen, upSeen, len(causes))
	}
}

func TestLinkFlapRCNNoFalseSuppression(t *testing.T) {
	// One full link flap with RCN: no suppression anywhere (mirrors the
	// origination-flap test, via the link-event path).
	g := mustTorus(t, 4, 4)
	origin, isp := attachOrigin(t, g, 0)
	k, n := buildNet(t, g, func(c *Config) {
		params := damping.Cisco()
		c.Damping = &params
		c.EnableRCN = true
	})
	converge(t, k, n, origin)
	n.ResetDamping()
	suppressions := 0
	n.SetHooks(Hooks{OnSuppress: func(_ time.Duration, _, _ RouterID, _ Prefix, on bool) {
		if on {
			suppressions++
		}
	}})
	if err := n.SetLinkState(origin, isp, false); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(origin, isp, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if suppressions != 0 {
		t.Fatalf("%d suppressions after one RCN link flap", suppressions)
	}
}

func TestFailTwoLinksPartitionsAndHeals(t *testing.T) {
	// Ring of 4: failing two opposite links partitions {0,1} from {2,3}...
	// actually failing 1-2 and 3-0 separates {0,1} and {2,3}.
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	k, n := buildNet(t, g, nil)
	converge(t, k, n, 0)
	if err := n.SetLinkState(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(3, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(1).LocalRoute(testPrefix); !ok {
		t.Fatal("router 1 (same partition) lost the route")
	}
	for _, id := range []RouterID{2, 3} {
		if _, ok := n.Router(id).LocalRoute(testPrefix); ok {
			t.Fatalf("router %d (other partition) kept the route", id)
		}
	}
	// Heal and verify full recovery.
	if err := n.SetLinkState(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(3, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d routeless after healing", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
