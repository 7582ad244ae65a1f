package bgp

import (
	"strings"
	"testing"
	"time"

	"rfd/damping"
	"rfd/topology"
)

// fixedDelayNet builds a network without MRAI and returns its first link's
// drawn delay: with nextProcDelay, arrival instants on that link can be
// asserted exactly.
func fixedDelayNet(t *testing.T, g *topology.Graph) (*Network, time.Duration) {
	t.Helper()
	_, n := buildNet(t, g, func(c *Config) {
		c.MRAI = 0
	})
	return n, n.linkDelay[0]
}

// nextProcDelay returns the processing delay router id's next send will
// draw, without drawing it.
func nextProcDelay(n *Network, id RouterID) time.Duration {
	probe := n.routers[id]
	return probe.procDelay()
}

func TestLastArrivalClearedOnLinkFailure(t *testing.T) {
	// Regression for stale FIFO state: messages lost on a failed link must
	// not serialize post-recovery messages behind their arrival times. Queue
	// several updates in flight (inflating the direction's FIFO high-water
	// mark), kill and restore the link in the same instant, and check the
	// re-advertisement arrives at its natural time, not one forced after the
	// lost messages'.
	n, linkDelay := fixedDelayNet(t, mustLine(t, 2))
	k := n.Kernel()
	converge(t, k, n, 0)

	start := k.Now()
	r := n.Router(0)
	// Four toggles queue W, A, W, A, a second late each, FIFO-stamped
	// behind one another: the direction's mark ends past any natural
	// arrival of the recovery.
	n.SetImpairment(dropDirection{from: -1, to: -1, delay: time.Second})
	r.StopOriginating(testPrefix)
	r.Originate(testPrefix)
	r.StopOriginating(testPrefix)
	r.Originate(testPrefix)
	n.SetImpairment(nil)
	if n.PendingDeliveries() != 4 {
		t.Fatalf("PendingDeliveries = %d, want 4", n.PendingDeliveries())
	}
	want := start + linkDelay + nextProcDelay(n, 0)
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The four in-flight updates were lost; only the recovery
	// re-advertisement arrives, one processing and one link delay after the
	// toggles.
	if got := n.LastDelivery(); got != want {
		t.Fatalf("last delivery at %v, want %v (stale FIFO state not cleared)", got, want)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(1).LocalRoute(testPrefix); !ok {
		t.Fatal("router 1 routeless after recovery")
	}
}

func TestSetLinkStateRepeatedTransitionsAreNoops(t *testing.T) {
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	converge(t, k, n, 0)
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	pending := k.Pending()
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != pending {
		t.Fatalf("second down scheduled %d extra events", k.Pending()-pending)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	pending = k.Pending()
	if err := n.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != pending {
		t.Fatalf("second up scheduled %d extra events", k.Pending()-pending)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkFailureWhileReuseTimerPending(t *testing.T) {
	// Suppress the isp's origin route, then fail the link while the reuse
	// timer is pending: the extra withdrawal charge lands on the suppressed
	// state, the timer keeps re-arming, and after recovery the network must
	// reconverge consistently with suppression eventually lifted.
	g := mustTorus(t, 4, 4)
	origin, isp := attachOrigin(t, g, 0)
	k, n := buildNet(t, g, func(c *Config) {
		params := damping.Cisco()
		c.Damping = &params
	})
	converge(t, k, n, origin)
	n.ResetDamping()
	for i := 0; i < 3; i++ {
		n.Router(origin).StopOriginating(testPrefix)
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		n.Router(origin).Originate(testPrefix)
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("isp not suppressed after 3 flaps")
	}
	if err := n.SetLinkState(origin, isp, false); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(k.Now() + 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(origin, isp, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if isSuppressed(n.Router(isp), origin, testPrefix) {
		t.Fatal("suppression never lifted after full drain")
	}
	if peer, ok := bestPeerOf(n.Router(isp), testPrefix); !ok || peer != origin {
		t.Fatalf("isp best peer = %d (ok=%t), want %d", peer, ok, origin)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOriginCrashWithdrawsNetworkWide(t *testing.T) {
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	converge(t, k, n, 0)
	if err := n.CrashRouter(0); err != nil {
		t.Fatal(err)
	}
	if n.RouterUp(0) {
		t.Fatal("crashed router reported up")
	}
	// Idempotent.
	if err := n.CrashRouter(0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 1; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); ok {
			t.Fatalf("router %d kept a route to the crashed origin", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Restart: the origin set survives the reboot, so the prefix comes back
	// network-wide.
	if err := n.RestartRouter(0); err != nil {
		t.Fatal(err)
	}
	if !n.RouterUp(0) {
		t.Fatal("restarted router reported down")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d routeless after origin restart", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTransitRouterCrashRestart(t *testing.T) {
	// Crash a non-origin router on a line: downstream routers lose the
	// route, and the restarted router relearns it from its peers.
	k, n := buildNet(t, mustLine(t, 4), nil)
	converge(t, k, n, 0)
	if err := n.CrashRouter(1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []RouterID{2, 3} {
		if _, ok := n.Router(id).LocalRoute(testPrefix); ok {
			t.Fatalf("router %d kept a route through the crashed transit", id)
		}
	}
	if err := n.RestartRouter(1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d routeless after transit restart", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashKillsInFlightMessages(t *testing.T) {
	n, _ := fixedDelayNet(t, mustLine(t, 2))
	k := n.Kernel()
	converge(t, k, n, 0)
	n.ResetCounters()
	n.Router(0).StopOriginating(testPrefix)
	if n.PendingDeliveries() != 1 {
		t.Fatalf("PendingDeliveries = %d, want 1", n.PendingDeliveries())
	}
	if err := n.CrashRouter(1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Delivered() != 0 {
		t.Fatalf("%d messages delivered to a crashed router", n.Delivered())
	}
	if n.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped())
	}
	if err := n.RestartRouter(1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionResetChargesDampingAndReconverges(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 3), func(c *Config) {
		params := damping.Cisco()
		c.Damping = &params
	})
	converge(t, k, n, 0)
	n.ResetDamping()
	n.ResetCounters()
	if err := n.ResetSession(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Router 1 saw the session flap as a route flap: withdrawal plus
	// re-announcement must have charged its damping state for (0, prefix).
	if p := penaltyOf(n.Router(1), 0, testPrefix, k.Now()); p <= 0 {
		t.Fatalf("penalty = %v after session reset, want > 0", p)
	}
	if n.Delivered() == 0 {
		t.Fatal("session reset generated no re-advertisements")
	}
	for id := 1; id <= 2; id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d routeless after session reset", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Unknown links error; resets of dead sessions are no-ops.
	if err := n.ResetSession(0, 2); err == nil {
		t.Fatal("reset of nonexistent link accepted")
	}
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	pending := k.Pending()
	if err := n.ResetSession(0, 1); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != pending {
		t.Fatal("reset of a down session scheduled events")
	}
}

func TestSessionResetKillsInFlightMessages(t *testing.T) {
	// A message in flight when the session resets belongs to the old
	// incarnation and must be lost, even though the session is immediately
	// re-established.
	n, linkDelay := fixedDelayNet(t, mustLine(t, 2))
	k := n.Kernel()
	converge(t, k, n, 0)
	n.ResetCounters()
	start := k.Now()
	n.Router(0).StopOriginating(testPrefix)
	n.Router(0).Originate(testPrefix)
	want := start + linkDelay + nextProcDelay(n, 0)
	if err := n.ResetSession(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want the 2 pre-reset messages", n.Dropped())
	}
	// Only the reset's own re-advertisement crosses, at its natural time.
	if got := n.LastDelivery(); got != want {
		t.Fatalf("last delivery at %v, want %v", got, want)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOriginationFlapWhileLinkDownResyncsOnRecovery(t *testing.T) {
	// Regression: a route change while a link is down must not record an
	// advertisement toward the dead session — the message is lost, and the
	// recovery re-sync would then skip the route as "already advertised",
	// leaving the peer permanently stale.
	k, n := buildNet(t, mustLine(t, 3), nil)
	converge(t, k, n, 0)
	if err := n.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(1).LocalRoute(testPrefix); !ok {
		t.Fatal("router 1 never relearned the route announced while the link was down")
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistencyRequiresQuiescence(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 3), nil)
	converge(t, k, n, 0)
	if !n.Quiescent() {
		t.Fatal("drained network not quiescent")
	}
	n.Router(0).StopOriginating(testPrefix)
	if n.Quiescent() {
		t.Fatal("network with in-flight withdrawal reported quiescent")
	}
	err := n.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "non-quiescent") {
		t.Fatalf("CheckConsistency on non-quiescent network: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Quiescent() {
		t.Fatal("drained network not quiescent")
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// dropDirection is a test impairment: loses every message on one direction,
// optionally delaying the rest.
type dropDirection struct {
	from, to RouterID
	delay    time.Duration
}

func (d dropDirection) Impair(_ time.Duration, from, to RouterID) (bool, time.Duration) {
	if from == d.from && to == d.to {
		return true, 0
	}
	return false, d.delay
}

func TestImpairmentDropsAndDelays(t *testing.T) {
	n, linkDelay := fixedDelayNet(t, mustLine(t, 2))
	k := n.Kernel()
	converge(t, k, n, 0)
	n.ResetCounters()

	// Jitter path: every surviving message is delayed by a fixed second.
	n.SetImpairment(dropDirection{from: -1, to: -1, delay: time.Second})
	want := k.Now() + linkDelay + nextProcDelay(n, 0) + time.Second
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.LastDelivery(); got != want {
		t.Fatalf("jittered delivery at %v, want %v", got, want)
	}

	// Loss path: the re-announcement toward router 1 is dropped, leaving
	// the session's RIBs divergent — exactly what CheckConsistency must
	// report under loss.
	n.SetImpairment(dropDirection{from: 0, to: 1})
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped())
	}
	if _, ok := n.Router(1).LocalRoute(testPrefix); ok {
		t.Fatal("router 1 learned a route from a dropped update")
	}
	if err := n.CheckConsistency(); err == nil {
		t.Fatal("consistency check missed the divergence a dropped update causes")
	}
	// A session reset repairs the divergence (the real-world remedy).
	n.SetImpairment(nil)
	if err := n.ResetSession(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
