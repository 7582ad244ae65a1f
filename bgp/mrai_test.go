package bgp

import (
	"testing"
	"time"

	"rfd/damping"
	"rfd/rcn"
)

// TestMRAIPendingCollapsesToLatest: several best-path changes within one
// MRAI window must produce a single announcement carrying the final state,
// not a burst.
func TestMRAIPendingCollapsesToLatest(t *testing.T) {
	// Line 0-1-2: router 1's announcements toward 2 are rate limited.
	k, n := buildNet(t, mustLine(t, 3), func(c *Config) {
		c.MRAI = 30 * time.Second
	})
	converge(t, k, n, 0)

	var toward2 []Message
	n.SetHooks(Hooks{OnDeliver: func(_ time.Duration, m Message) {
		if m.From == 1 && m.To == 2 {
			toward2 = append(toward2, m)
		}
	}})

	// Rapid flapping of the origin: 4 transitions well inside one MRAI.
	// Withdrawals pass immediately; announcements coalesce.
	for i := 0; i < 2; i++ {
		n.Router(0).StopOriginating(testPrefix)
		if err := k.RunUntil(k.Now() + 2*time.Second); err != nil {
			t.Fatal(err)
		}
		n.Router(0).Originate(testPrefix)
		if err := k.RunUntil(k.Now() + 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	anns := 0
	for _, m := range toward2 {
		if !m.Withdraw {
			anns++
		}
	}
	// The first announcement goes out immediately (timer idle); everything
	// else coalesces into at most one pending release.
	if anns > 2 {
		t.Fatalf("%d announcements crossed 1->2 during rapid flapping; MRAI did not coalesce", anns)
	}
	// Final state must be consistent.
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(2).LocalRoute(testPrefix); !ok {
		t.Fatal("router 2 missing the final route")
	}
}

// TestMRAIWithdrawalCancelsPending: a withdrawal arriving while an
// announcement is pending must cancel it — the peer must never receive a
// stale announcement after the withdrawal.
func TestMRAIWithdrawalCancelsPending(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 3), func(c *Config) {
		c.MRAI = 30 * time.Second
	})
	converge(t, k, n, 0)
	var last Message
	n.SetHooks(Hooks{OnDeliver: func(_ time.Duration, m Message) {
		if m.From == 1 && m.To == 2 {
			last = m
		}
	}})
	// Flap fast: down-up-down. Final state: withdrawn.
	n.Router(0).StopOriginating(testPrefix)
	if err := k.RunUntil(k.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	n.Router(0).Originate(testPrefix)
	if err := k.RunUntil(k.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !last.Withdraw {
		t.Fatalf("final message toward 2 was an announcement: %s", last)
	}
	if _, ok := n.Router(2).LocalRoute(testPrefix); ok {
		t.Fatal("router 2 kept a route after final withdrawal")
	}
}

// TestMRAITimerLapsesWhenIdle: after convergence no MRAI timers may keep
// the kernel busy forever (they fire once and lapse).
func TestMRAITimerLapses(t *testing.T) {
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	converge(t, k, n, 0)
	if k.Pending() != 0 {
		t.Fatalf("%d events still pending after convergence", k.Pending())
	}
	_ = n
}

// TestReuseTimerStaleRearm: the reuse timer must re-arm rather than reuse
// when the penalty was re-charged after arming (TryReuse fails path).
func TestReuseTimerStaleRearm(t *testing.T) {
	k, n, origin, isp := dampedNet(t, nil)
	// Suppress the origin link at the isp.
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if !n.Router(isp).Suppressed(origin, testPrefix) {
		t.Fatal("setup: not suppressed")
	}
	// Keep flapping: each pulse re-charges the suppressed entry and pushes
	// its reuse out; the (stale) earlier timers must not unsuppress early.
	for i := 0; i < 4; i++ {
		pulse(t, k, n, origin)
		if !n.Router(isp).Suppressed(origin, testPrefix) {
			t.Fatalf("suppression lifted early during pulse %d", i+4)
		}
	}
	// Eventually the route is reused and the network converges.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Router(isp).Suppressed(origin, testPrefix) {
		t.Fatal("still suppressed after drain")
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRIPE229Preset pins the coordinated parameters and their effect: the
// higher cut-off delays the origin-link suppression onset to pulse 4.
func TestRIPE229Onset(t *testing.T) {
	p := damping.RIPE229()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CutoffThreshold != 3000 || p.ReannouncementPenalty != 0 {
		t.Fatalf("RIPE-229 preset wrong: %+v", p)
	}
	g := mustTorus(t, 4, 4)
	origin, isp := attachOrigin(t, g, 0)
	k, n := buildNet(t, g, func(c *Config) {
		c.Damping = &p
	})
	converge(t, k, n, origin)
	n.ResetDamping()
	onset := 0
	for i := 1; i <= 8 && onset == 0; i++ {
		pulse(t, k, n, origin)
		if n.Router(isp).Suppressed(origin, testPrefix) {
			onset = i
		}
	}
	// Cisco (cutoff 2000) suppresses at 3; RIPE-229's 3000 needs one more.
	if onset != 4 {
		t.Fatalf("RIPE-229 onset = %d, want 4", onset)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRCNHistoryUnderChurn: a flap leaves two causes in each history, so
// more than rcn.DefaultHistorySize/2 pulses fill the ISP's history from the
// origin and evict its oldest causes, which can then re-charge — damping
// must still converge and stay consistent.
func TestRCNHistoryUnderChurn(t *testing.T) {
	k, n, origin, isp := dampedNet(t, func(c *Config) {
		c.EnableRCN = true
	})
	for i := 0; i < rcn.DefaultHistorySize/2+8; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r := n.Router(isp)
	slot := r.slotOf(origin)
	if slot < 0 {
		t.Fatal("the ISP has no session with the origin")
	}
	if got := n.history[r.base+slot].Len(); got != rcn.DefaultHistorySize {
		t.Fatalf("the ISP's history from the origin holds %d causes, want a full %d", got, rcn.DefaultHistorySize)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d routeless after churn", id)
		}
	}
}

// TestDampedInternetRunConverges exercises damping on the long-tailed
// topology end to end (hubs see many peers and heavy churn).
func TestDampedInternetRunConverges(t *testing.T) {
	g := buildAnnotatedGraph(t, 50, 13)
	origin := g.NumNodes() - 1 // buildAnnotatedGraph appends the origin last
	k, n := buildNet(t, g, func(c *Config) {
		params := damping.Cisco()
		c.Damping = &params
	})
	converge(t, k, n, RouterID(origin))
	n.ResetDamping()
	n.ResetCounters()
	for i := 0; i < 3; i++ {
		pulse(t, k, n, RouterID(origin))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if n.DampedLinkCount() != 0 {
		t.Fatal("links still suppressed after drain")
	}
}

// TestMRAIEventsAreHeldAnnouncements: an MRAI interval end is an event only
// when an announcement waits for it. On a damped mesh flapping through a
// session reset, every bgp.mrai event releases exactly one held announcement,
// every held announcement is either released so or dropped (superseded by a
// withdrawal or an unchanged decision, or lost with its session), and the
// intervals no announcement waited for fire nothing. Holds, releases and
// drops are read off the RIB-OUT pending flags after every event and every
// stimulus.
func TestMRAIEventsAreHeldAnnouncements(t *testing.T) {
	k, n := buildNet(t, mustTorus(t, 5, 5), func(c *Config) {
		p := damping.Cisco()
		c.Damping = &p
	})
	converge(t, k, n, 0)

	type entry struct {
		r, peer RouterID
		prefix  Prefix
	}
	held := map[entry]bool{}
	var holds, releases, drops, mraiEvents, intervals int
	scan := func(event string) {
		released := 0
		for id := 0; id < n.NumRouters(); id++ {
			n.Router(RouterID(id)).EachRIBOut(func(v RIBOutView) {
				e := entry{RouterID(id), v.Peer, v.Prefix}
				was, is := held[e], v.Pending
				switch {
				case is && !was:
					holds++
				case was && !is && event == "bgp.mrai":
					released++
				case was && !is:
					drops++
				}
				held[e] = is
			})
		}
		releases += released
		if event == "bgp.mrai" && released != 1 {
			t.Fatalf("a bgp.mrai event at %v released %d announcements, want 1", k.Now(), released)
		}
	}
	k.SetTrace(func(_ time.Duration, name string) {
		if name == "bgp.mrai" {
			mraiEvents++
		}
	})
	k.SetAfterEvent(func(_ time.Duration, name string) { scan(name) })
	n.SetDebugHooks(DebugHooks{OnSend: func(_ time.Duration, m Message) {
		if !m.Withdraw {
			intervals++ // every announcement starts an MRAI interval
		}
	}})
	scan("")

	run := func(d time.Duration) {
		t.Helper()
		if err := k.RunUntil(k.Now() + d); err != nil {
			t.Fatal(err)
		}
	}
	for pulse := 0; pulse < 3; pulse++ {
		n.Router(0).StopOriginating(testPrefix)
		scan("")
		run(60 * time.Second)
		n.Router(0).Originate(testPrefix)
		scan("")
		if pulse == 1 {
			run(2 * time.Second) // mid-exploration: announcements are held
			if err := n.ResetSession(6, 7); err != nil {
				t.Fatal(err)
			}
			scan("")
		}
		run(60 * time.Second)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	t.Logf("%d intervals, %d held announcements: %d released by %d bgp.mrai events, %d dropped",
		intervals, holds, releases, mraiEvents, drops)
	if mraiEvents != releases {
		t.Fatalf("%d bgp.mrai events, %d releases", mraiEvents, releases)
	}
	if holds != releases+drops {
		t.Fatalf("%d announcements held, %d released + %d dropped", holds, releases, drops)
	}
	if mraiEvents == 0 || drops == 0 {
		t.Fatalf("the run does not exercise both fates of a held announcement (%d released, %d dropped)", releases, drops)
	}
	if intervals <= mraiEvents {
		t.Fatalf("%d MRAI intervals but %d bgp.mrai events: idle interval ends must not be events", intervals, mraiEvents)
	}
}
