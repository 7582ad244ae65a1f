package bgp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rfd/damping"
	"rfd/sim"
	"rfd/topology"
)

const testPrefix = Prefix("origin/8")

// buildNet constructs a network on a fresh kernel with the given topology and
// config tweaks applied to DefaultConfig.
func buildNet(t *testing.T, g *topology.Graph, mutate func(*Config)) (*sim.Kernel, *Network) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	n, err := NewNetwork(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

// converge originates testPrefix at origin and drains the kernel.
func converge(t *testing.T, k *sim.Kernel, n *Network, origin RouterID) {
	t.Helper()
	n.Router(origin).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func mustTorus(t *testing.T, r, c int) *topology.Graph {
	t.Helper()
	g, err := topology.Torus(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustLine(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPathHelpers(t *testing.T) {
	p := Path{3, 7, 12}
	if !p.Contains(7) || p.Contains(8) {
		t.Fatal("Contains wrong")
	}
	q := p.Clone()
	q[0] = 99
	if p[0] != 3 {
		t.Fatal("Clone aliases storage")
	}
	if !p.Equal(Path{3, 7, 12}) || p.Equal(Path{3, 7}) || p.Equal(Path{3, 7, 13}) {
		t.Fatal("Equal wrong")
	}
	if p.String() != "3 7 12" {
		t.Fatalf("String = %q", p.String())
	}
	var empty Path
	if empty.String() != "<empty>" {
		t.Fatalf("empty String = %q", empty.String())
	}
	if empty.Clone() != nil {
		t.Fatal("nil Clone != nil")
	}
}

func TestMessageString(t *testing.T) {
	w := Message{From: 1, To: 2, Prefix: testPrefix, Withdraw: true}
	a := Message{From: 1, To: 2, Prefix: testPrefix, Path: Path{1, 0}}
	if w.String() == "" || a.String() == "" {
		t.Fatal("empty String")
	}
}

// TestNetworkModel pins the paper's one network model (Section 5.1), which
// every run shares: each link delay is drawn in [10 ms, 110 ms), each
// processing delay in [1 ms, 10 ms) and each MRAI interval in
// [0.75, 1.0)·MRAI — and the draws reach both ends of every range.
func TestNetworkModel(t *testing.T) {
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, n := buildNet(t, g, nil)
	const mrai = 30 * time.Second
	if n.cfg.MRAI != mrai {
		t.Fatalf("default MRAI %v, want %v", n.cfg.MRAI, mrai)
	}
	var proc, intervals []time.Duration
	for i := 0; i < 2000; i++ {
		r := &n.routers[i%len(n.routers)]
		proc = append(proc, r.procDelay())
		intervals = append(intervals, r.mraiInterval(mrai))
	}
	for _, tc := range []struct {
		what   string
		draws  []time.Duration
		lo, hi time.Duration
	}{
		{"link delay", n.linkDelay, 10 * time.Millisecond, 110 * time.Millisecond},
		{"processing delay", proc, time.Millisecond, 10 * time.Millisecond},
		{"MRAI interval", intervals, 3 * mrai / 4, mrai},
	} {
		least, most := tc.hi, tc.lo
		for _, d := range tc.draws {
			if d < tc.lo || d >= tc.hi {
				t.Fatalf("%s %v outside [%v, %v)", tc.what, d, tc.lo, tc.hi)
			}
			least, most = min(least, d), max(most, d)
		}
		if slack := (tc.hi - tc.lo) / 20; least >= tc.lo+slack || most < tc.hi-slack {
			t.Fatalf("%d %s draws span only [%v, %v] of [%v, %v)", len(tc.draws), tc.what, least, most, tc.lo, tc.hi)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero policy", func(c *Config) { c.Policy = 0 }},
		{"negative mrai", func(c *Config) { c.MRAI = -time.Second }},
		{"rcn without damping", func(c *Config) { c.EnableRCN = true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestNewNetworkValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewNetwork(k, topology.New("empty", 0), DefaultConfig()); err == nil {
		t.Fatal("empty topology accepted")
	}
	cfg := DefaultConfig()
	cfg.Policy = NoValley
	if _, err := NewNetwork(k, mustLine(t, 3), cfg); err == nil {
		t.Fatal("no-valley on unannotated topology accepted")
	}
	bad := DefaultConfig()
	bad.MRAI = -1
	if _, err := NewNetwork(k, mustLine(t, 3), bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestLineConvergence(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 5), nil)
	converge(t, k, n, 0)
	// Every router must hold a route with the shortest path to 0.
	for id := 1; id < 5; id++ {
		path, ok := n.Router(RouterID(id)).LocalRoute(testPrefix)
		if !ok {
			t.Fatalf("router %d has no route", id)
		}
		if len(path) != id {
			t.Fatalf("router %d path [%s], want length %d", id, path, id)
		}
		if path[len(path)-1] != 0 {
			t.Fatalf("router %d path [%s] does not end at origin", id, path)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOriginRouterPrefersItself(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 3), nil)
	converge(t, k, n, 0)
	peer, ok := bestPeerOf(n.Router(0), testPrefix)
	if !ok || peer != selfPeer {
		t.Fatalf("origin best peer = %d, ok=%t; want self", peer, ok)
	}
	if !n.Router(0).Originates(testPrefix) {
		t.Fatal("origin does not report originating")
	}
}

func TestWithdrawalPropagates(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 5), nil)
	converge(t, k, n, 0)
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 5; id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); ok {
			t.Fatalf("router %d still has a route after withdrawal", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReannouncementRestoresRoutes(t *testing.T) {
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	converge(t, k, n, 0)
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Router(0).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d routeless after re-announcement", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathsOnTorus(t *testing.T) {
	g := mustTorus(t, 5, 5)
	k, n := buildNet(t, g, nil)
	converge(t, k, n, 0)
	dist := g.BFS(0)
	for id := 1; id < n.NumRouters(); id++ {
		path, ok := n.Router(RouterID(id)).LocalRoute(testPrefix)
		if !ok {
			t.Fatalf("router %d has no route", id)
		}
		if len(path) != dist[topology.NodeID(id)] {
			t.Fatalf("router %d path length %d, BFS distance %d", id, len(path), dist[topology.NodeID(id)])
		}
	}
}

func TestNoLoopsEver(t *testing.T) {
	k, n := buildNet(t, mustTorus(t, 4, 4), nil)
	// Observe every delivered announcement; none may contain its receiver.
	n.SetHooks(Hooks{OnDeliver: func(_ time.Duration, m Message) {
		if !m.Withdraw && m.Path.Contains(m.To) {
			t.Errorf("looped path [%s] delivered to %d", m.Path, m.To)
		}
		if !m.Withdraw && m.Path[0] != m.From {
			t.Errorf("path [%s] does not start with sender %d", m.Path, m.From)
		}
	}})
	converge(t, k, n, 0)
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	// On a 4-ring, routers 1 and 3 are equidistant neighbors of 2; the
	// tie-break must pick the lower peer ID.
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	k, n := buildNet(t, g, nil)
	converge(t, k, n, 0)
	peer, ok := bestPeerOf(n.Router(2), testPrefix)
	if !ok {
		t.Fatal("router 2 has no route")
	}
	if peer != 1 {
		t.Fatalf("router 2 best peer = %d, want 1 (lowest ID tie-break)", peer)
	}
}

func TestMRAIRateLimitsAnnouncements(t *testing.T) {
	// With MRAI on, consecutive announcements on one session must be spaced
	// at least one jittered interval apart (withdrawals may interleave
	// freely).
	g := mustTorus(t, 4, 4)
	const mrai = 30 * time.Second
	k, n := buildNet(t, g, func(c *Config) {
		c.MRAI = mrai
	})
	type key struct{ from, to RouterID }
	lastAnn := make(map[key]time.Duration)
	minGap := time.Hour
	n.SetHooks(Hooks{OnDeliver: func(at time.Duration, m Message) {
		if m.Withdraw {
			return
		}
		kk := key{m.From, m.To}
		if prev, ok := lastAnn[kk]; ok {
			if gap := at - prev; gap < minGap {
				minGap = gap
			}
		}
		lastAnn[kk] = at
	}})
	converge(t, k, n, 0)
	// Flap to force repeated announcements.
	for i := 0; i < 3; i++ {
		n.Router(0).StopOriginating(testPrefix)
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		n.Router(0).Originate(testPrefix)
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Sends are at least one jittered interval apart, and each delivery
	// trails its send by the link's fixed delay plus a processing delay.
	if floor := 3*mrai/4 - (maxProcDelay - minProcDelay); minGap < floor {
		t.Fatalf("announcements spaced %v apart, want >= %v", minGap, floor)
	}
}

func TestNoMRAINoPacing(t *testing.T) {
	// Sanity: with MRAI disabled the same scenario produces more messages.
	run := func(mrai time.Duration) uint64 {
		k, n := buildNet(t, mustTorus(t, 4, 4), func(c *Config) {
			c.MRAI = mrai
		})
		converge(t, k, n, 0)
		n.ResetCounters()
		n.Router(0).StopOriginating(testPrefix)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Delivered()
	}
	withMRAI := run(30 * time.Second)
	without := run(0)
	if without <= withMRAI {
		t.Fatalf("MRAI did not reduce messages: with=%d without=%d", withMRAI, without)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		k, n := buildNet(t, mustTorus(t, 4, 4), nil)
		converge(t, k, n, 0)
		n.Router(0).StopOriginating(testPrefix)
		if err := k.RunUntil(k.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		n.Router(0).Originate(testPrefix)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Delivered(), n.LastDelivery()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("runs diverge: (%d, %v) vs (%d, %v)", c1, t1, c2, t2)
	}
}

func TestRouterAccessors(t *testing.T) {
	k, n := buildNet(t, mustLine(t, 3), nil)
	if n.Router(-1) != nil || n.Router(99) != nil {
		t.Fatal("out-of-range Router() != nil")
	}
	r := n.Router(1)
	if r.ID() != 1 {
		t.Fatalf("ID = %d", r.ID())
	}
	if len(r.peers) != 2 {
		t.Fatalf("peers = %v", r.peers)
	}
	converge(t, k, n, 0)
	if penaltyOf(n.Router(0), 1, testPrefix, k.Now()) != 0 {
		t.Fatal("penalty nonzero with damping disabled")
	}
	if isSuppressed(n.Router(0), 1, testPrefix) {
		t.Fatal("suppressed with damping disabled")
	}
	// Double-originate and double-withdraw are no-ops.
	n.Router(0).Originate(testPrefix)
	if k.Pending() != 0 {
		t.Fatal("re-originating an originated prefix scheduled events")
	}
}

func TestPathExplorationOnWithdrawal(t *testing.T) {
	// The Labovitz effect (Section 2): after a single withdrawal, a node
	// with alternate paths explores longer and longer paths before giving
	// up, so the network sees far more than one update per link.
	k, n := buildNet(t, mustTorus(t, 4, 4), func(c *Config) {
		c.MRAI = 0 // no pacing: maximum exploration
	})
	converge(t, k, n, 0)
	n.ResetCounters()
	n.Router(0).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 16 nodes, 32 links: a pure "one withdrawal per link" flood would be
	// ~64 messages; path exploration must amplify well beyond that.
	if n.Delivered() < 100 {
		t.Fatalf("only %d updates after withdrawal; expected heavy path exploration", n.Delivered())
	}
	for id := 0; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); ok {
			t.Fatalf("router %d kept a route to a withdrawn prefix", id)
		}
	}
}

// TestNetworkRoutesOnePrefix: the first Originate names the network's
// prefix. Another prefix is originated nowhere and has no route and no
// damping record, withdrawing it changes nothing, and originating it panics
// naming both prefixes.
func TestNetworkRoutesOnePrefix(t *testing.T) {
	const other = Prefix("other/8")
	k, n := buildNet(t, mustTorus(t, 4, 4), func(c *Config) {
		p := damping.Cisco()
		c.Damping = &p
	})
	origin := n.Router(0)
	origin.Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	peer := n.Router(origin.peers[0])
	if peer.DebugDampingState(origin.id, testPrefix) == nil {
		t.Fatal("setup: no damping record for the originated prefix")
	}
	if origin.Originates(other) {
		t.Error("Originates reports a prefix nobody originated")
	}
	if path, ok := peer.LocalRoute(other); ok || path != nil {
		t.Errorf("LocalRoute(%s) = [%s], %t; want none", other, path, ok)
	}
	if peer.DebugDampingState(origin.id, other) != nil {
		t.Errorf("DebugDampingState(%s) returned a record", other)
	}
	origin.StopOriginating(other)
	if !origin.Originates(testPrefix) || k.Pending() != 0 {
		t.Fatalf("StopOriginating(%s) changed the network: originates %t, %d events queued",
			other, origin.Originates(testPrefix), k.Pending())
	}
	for id := range n.NumRouters() {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d has no route to %s", id, testPrefix)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, string(testPrefix)) || !strings.Contains(msg, string(other)) {
			t.Fatalf("originating a second prefix: panic %q, want one naming %s and %s", msg, testPrefix, other)
		}
	}()
	n.Router(5).Originate(other)
}

func TestPolicyString(t *testing.T) {
	if ShortestPath.String() != "shortest-path" || NoValley.String() != "no-valley" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}

// bestPeerOf returns the peer r's best route for prefix was learned from
// (selfPeer for a self-originated one) and whether a route is installed.
func bestPeerOf(r *Router, prefix Prefix) (RouterID, bool) {
	l := r.local()
	return l.bestPeer, prefix == r.net.prefix && l.hasRoute
}

// penaltyOf returns r's damping penalty for (peer, prefix) at now; zero when
// damping is disabled or no state exists.
func penaltyOf(r *Router, peer RouterID, prefix Prefix, now time.Duration) float64 {
	if e := r.ribInAt(r.slotOf(peer)); prefix == r.net.prefix && e != nil && r.damp != nil {
		return e.damp.Penalty(r.damp, now)
	}
	return 0
}

// isSuppressed reports whether r suppresses the route from peer for prefix.
func isSuppressed(r *Router, peer RouterID, prefix Prefix) bool {
	e := r.ribInAt(r.slotOf(peer))
	return prefix == r.net.prefix && e != nil && e.damp.Suppressed()
}
