package bgp

import (
	"testing"
	"time"

	"rfd/topology"
)

// hopKind classifies one propagation hop sender→receiver of an AS path:
// "up" (customer to provider), "down" (provider to customer), "flat" (peers).
func hopKind(g *topology.Graph, sender, receiver topology.NodeID) string {
	switch g.Relationship(receiver, sender) {
	case topology.RelCustomer:
		// The sender is the receiver's customer: the route moved upward.
		return "up"
	case topology.RelProvider:
		return "down"
	default:
		return "flat"
	}
}

// valleyFreePath checks the classic pattern: up* flat? down* along the
// propagation direction (origin ... receiver).
func valleyFreePath(g *topology.Graph, path Path, receiver RouterID) bool {
	// Propagation order: path[len-1] (origin) ... path[0], then receiver.
	hops := make([]string, 0, len(path))
	for i := len(path) - 1; i > 0; i-- {
		hops = append(hops, hopKind(g, path[i], path[i-1]))
	}
	hops = append(hops, hopKind(g, path[0], receiver))
	phase := "up"
	for _, h := range hops {
		switch h {
		case "up":
			if phase != "up" {
				return false
			}
		case "flat":
			if phase == "down" {
				return false
			}
			phase = "down" // at most one peer link, then only downhill
		case "down":
			phase = "down"
		}
	}
	return true
}

// buildAnnotatedGraph returns an annotated internet-derived graph with the
// origin appended as the last node (customer of a mid-ranked isp).
func buildAnnotatedGraph(t *testing.T, nodes int, seed uint64) *topology.Graph {
	t.Helper()
	g, _, _ := buildAnnotated(t, nodes, seed)
	return g
}

func buildAnnotated(t *testing.T, nodes int, seed uint64) (*topology.Graph, RouterID, RouterID) {
	t.Helper()
	g, err := topology.InternetDerived(topology.DefaultInternetConfig(nodes, seed))
	if err != nil {
		t.Fatal(err)
	}
	// Attach the origin as a customer of a mid-ranked node, like the paper's
	// random ispAS selection.
	isp := topology.NodeID(nodes / 2)
	origin := g.AddNode()
	if err := g.AddEdge(origin, isp); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(origin, isp, topology.RelProvider); err != nil {
		t.Fatal(err)
	}
	return g, origin, isp
}

func TestNoValleyAllPathsValleyFree(t *testing.T) {
	g, origin, _ := buildAnnotated(t, 60, 17)
	k, n := buildNet(t, g, func(c *Config) {
		c.Policy = NoValley
	})
	violations := 0
	n.SetHooks(Hooks{OnDeliver: func(_ time.Duration, m Message) {
		if m.Withdraw {
			return
		}
		if !valleyFreePath(g, m.Path, m.To) {
			violations++
			t.Errorf("valley path [%s] delivered to %d", m.Path, m.To)
		}
	}})
	converge(t, k, n, origin)
	n.Router(origin).StopOriginating(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Router(origin).Originate(testPrefix)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d valley violations", violations)
	}
}

func TestNoValleyEveryoneReachesCustomerRoute(t *testing.T) {
	// A customer-originated route is exportable upward and downward, so the
	// whole (connected, valley-free-annotated) network must learn it.
	g, origin, _ := buildAnnotated(t, 60, 23)
	k, n := buildNet(t, g, func(c *Config) {
		c.Policy = NoValley
	})
	converge(t, k, n, origin)
	for id := 0; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d did not learn the customer route", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNoValleyPrefersCustomerRoutes(t *testing.T) {
	// The origin 3 is multihomed: a customer of tier-1 0 directly, and of 4,
	// which is a customer of 1, which is a customer of 2. 0 and 2 peer.
	// Router 2 then hears the prefix from its peer 0 with path [0 3] (len 2)
	// and from its customer 1 with path [1 4 3] (len 3). The no-valley
	// customer preference must beat the shorter peer path.
	g := topology.New("pref", 5)
	rels := []struct {
		a, b topology.NodeID
		rel  topology.Relationship // a's view of b
	}{
		{3, 0, topology.RelProvider},
		{3, 4, topology.RelProvider},
		{4, 1, topology.RelProvider},
		{1, 2, topology.RelProvider},
		{0, 2, topology.RelPeer},
	}
	for _, e := range rels {
		if err := g.AddEdge(e.a, e.b); err != nil {
			t.Fatal(err)
		}
		if err := g.SetRelationship(e.a, e.b, e.rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := topology.ValleyFree(g); err != nil {
		t.Fatal(err)
	}
	k, n := buildNet(t, g, func(c *Config) {
		c.Policy = NoValley
	})
	converge(t, k, n, 3)
	peer, ok := n.Router(2).BestPeer(testPrefix)
	if !ok {
		t.Fatal("router 2 has no route")
	}
	if peer != 1 {
		t.Fatalf("router 2 best peer = %d, want customer 1 over shorter peer route", peer)
	}
	path, _ := n.Router(2).LocalRoute(testPrefix)
	if !path.Equal(Path{1, 4, 3}) {
		t.Fatalf("router 2 path [%s], want [1 4 3]", path)
	}
}

func TestNoValleyBlocksPeerToPeerTransit(t *testing.T) {
	// Line 0-1-2 where 0 and 2 are both peers of 1: 1 must not give 2 a
	// route to 0's prefix (transit between two peers).
	g := topology.New("transit", 3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(0, 1, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(1, 2, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	k, n := buildNet(t, g, func(c *Config) {
		c.Policy = NoValley
	})
	converge(t, k, n, 0)
	if _, ok := n.Router(1).LocalRoute(testPrefix); !ok {
		t.Fatal("router 1 (direct peer) should have the route")
	}
	if _, ok := n.Router(2).LocalRoute(testPrefix); ok {
		t.Fatal("router 2 got peer-to-peer transit through 1")
	}
}

func TestNoValleyProviderRouteOnlyToCustomers(t *testing.T) {
	// 1 learns the prefix from its provider 0; 1's customer 2 must get it,
	// 1's peer 3 must not.
	g := topology.New("export", 4)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {1, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRelationship(1, 0, topology.RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(2, 1, topology.RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(1, 3, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	k, n := buildNet(t, g, func(c *Config) {
		c.Policy = NoValley
	})
	converge(t, k, n, 0)
	if _, ok := n.Router(2).LocalRoute(testPrefix); !ok {
		t.Fatal("customer 2 did not receive the provider route")
	}
	if _, ok := n.Router(3).LocalRoute(testPrefix); ok {
		t.Fatal("peer 3 received a provider-learned route (valley)")
	}
}

func TestNoValleyOnTieredHierarchy(t *testing.T) {
	// The tiered AS family: a prefix originated in one stub must reach
	// every AS under no-valley export rules, and all delivered paths must
	// be valley-free.
	g, err := topology.Tiered(3)
	if err != nil {
		t.Fatal(err)
	}
	// Attach the origin as a customer of the first stub's tier-2 provider
	// (IDs: the four tier-1s first, then tier-2, then stubs).
	tier2 := topology.NodeID(4)
	origin := g.AddNode()
	if err := g.AddEdge(origin, tier2); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(origin, tier2, topology.RelProvider); err != nil {
		t.Fatal(err)
	}
	k, n := buildNet(t, g, func(c *Config) {
		c.Policy = NoValley
	})
	violations := 0
	n.SetHooks(Hooks{OnDeliver: func(_ time.Duration, m Message) {
		if !m.Withdraw && !valleyFreePath(g, m.Path, m.To) {
			violations++
		}
	}})
	converge(t, k, n, origin)
	if violations > 0 {
		t.Fatalf("%d valley violations on tiered hierarchy", violations)
	}
	for id := 0; id < n.NumRouters(); id++ {
		if _, ok := n.Router(RouterID(id)).LocalRoute(testPrefix); !ok {
			t.Fatalf("router %d unreachable on tiered hierarchy", id)
		}
	}
	if err := n.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNoValleyReducesExploration(t *testing.T) {
	// Section 7: policy prunes alternate paths, so a withdrawal triggers
	// fewer updates than under shortest-path on the same annotated graph.
	run := func(policy Policy) uint64 {
		g, origin, _ := buildAnnotated(t, 60, 31)
		k, n := buildNet(t, g, func(c *Config) {
			c.Policy = policy
		})
		converge(t, k, n, origin)
		n.ResetCounters()
		n.Router(origin).StopOriginating(testPrefix)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Delivered()
	}
	shortest := run(ShortestPath)
	noValley := run(NoValley)
	if noValley >= shortest {
		t.Fatalf("no-valley did not reduce updates: %d vs %d", noValley, shortest)
	}
}
