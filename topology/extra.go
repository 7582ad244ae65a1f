package topology

import (
	"fmt"
	"math"

	"rfd/internal/xrand"
)

// WaxmanConfig parameterizes the Waxman random-geometric generator.
type WaxmanConfig struct {
	// Nodes is the number of nodes, placed uniformly in the unit square.
	Nodes int
	// Alpha scales overall edge density (0, 1].
	Alpha float64
	// Beta controls the reach of long edges (0, 1]: larger values make
	// distant pairs more likely to connect.
	Beta float64
	// Seed drives placement and edge selection.
	Seed uint64
}

// DefaultWaxmanConfig returns the classic parameters (α = 0.15, β = 0.6)
// tuned to yield average degree ≈ 4 at n = 100.
func DefaultWaxmanConfig(nodes int, seed uint64) WaxmanConfig {
	return WaxmanConfig{Nodes: nodes, Alpha: 0.15, Beta: 0.6, Seed: seed}
}

// Waxman generates the classic Waxman (1988) random topology: nodes placed
// uniformly in the unit square, each pair connected with probability
// α·exp(−d / (β·√2)). The result is forced connected by linking each
// stranded component to its geometrically nearest connected node, so it is
// usable directly as a simulation substrate. Unannotated (shortest-path
// policy only).
func Waxman(cfg WaxmanConfig) (*Graph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("topology: waxman needs >= 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 || cfg.Beta <= 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("topology: waxman alpha/beta (%v, %v) out of (0, 1]", cfg.Alpha, cfg.Beta)
	}
	rng := xrand.New(cfg.Seed)
	type point struct{ x, y float64 }
	pts := make([]point, cfg.Nodes)
	for i := range pts {
		pts[i] = point{rng.Float64(), rng.Float64()}
	}
	dist := func(a, b int) float64 {
		dx, dy := pts[a].x-pts[b].x, pts[a].y-pts[b].y
		return math.Sqrt(dx*dx + dy*dy)
	}
	g := New(fmt.Sprintf("waxman-%d", cfg.Nodes), cfg.Nodes)
	maxDist := math.Sqrt2
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			p := cfg.Alpha * math.Exp(-dist(i, j)/(cfg.Beta*maxDist))
			if rng.Float64() < p {
				g.mustEdge(NodeID(i), NodeID(j))
			}
		}
	}
	// Force connectivity: repeatedly attach the component not containing
	// node 0 via the geometrically closest cross pair.
	for {
		reach := g.BFS(0)
		if len(reach) == g.NumNodes() {
			break
		}
		bestIn, bestOut := -1, -1
		bestD := math.Inf(1)
		for v := 0; v < g.NumNodes(); v++ {
			if _, ok := reach[NodeID(v)]; ok {
				continue
			}
			for u := range reach {
				if d := dist(int(u), v); d < bestD {
					bestD, bestIn, bestOut = d, int(u), v
				}
			}
		}
		g.mustEdge(NodeID(bestIn), NodeID(bestOut))
	}
	return g, nil
}

// TieredConfig parameterizes the hierarchical (tiered) AS generator.
type TieredConfig struct {
	// Tier1 is the size of the settlement-free core clique.
	Tier1 int
	// Tier2 is the number of mid-tier transit ASes.
	Tier2 int
	// Tier2Multihome gives each tier-2 AS a second (distinct) tier-1
	// provider when possible.
	Tier2Multihome bool
	// StubsPerTier2 is how many stub ASes buy transit from each tier-2.
	StubsPerTier2 int
	// Seed drives the provider selection.
	Seed uint64
}

// DefaultTieredConfig returns a three-level hierarchy of ≈ tier1 + tier2·(1
// + stubs) ASes: 4 tier-1s, 12 tier-2s (multihomed), 5 stubs each → 76.
func DefaultTieredConfig(seed uint64) TieredConfig {
	return TieredConfig{
		Tier1:          4,
		Tier2:          12,
		Tier2Multihome: true,
		StubsPerTier2:  5,
		Seed:           seed,
	}
}

// nodes is the hierarchy's size: the core, the transit ASes and their stubs.
func (cfg TieredConfig) nodes() int { return cfg.Tier1 + cfg.Tier2*(1+cfg.StubsPerTier2) }

// Tiered generates a three-level AS hierarchy annotated for the no-valley
// policy, in the spirit of the classic Internet structure the paper's policy
// discussion assumes:
//
//   - tier-1: a full clique of peer-peer links (the settlement-free core) —
//     any route can cross exactly one peer link at the top;
//   - tier-2: transit ASes, each a customer of one (or, with
//     Tier2Multihome, two) tier-1 providers;
//   - stubs: customers of one tier-2 each.
//
// Every AS is reachable from every other under no-valley export rules
// (up via providers, once across the core, down to customers), and the
// customer→provider digraph is acyclic by construction.
func Tiered(cfg TieredConfig) (*Graph, error) {
	switch {
	case cfg.Tier1 < 2:
		return nil, fmt.Errorf("topology: tiered needs >= 2 tier-1 ASes")
	case cfg.Tier2 < 0 || cfg.StubsPerTier2 < 0:
		return nil, fmt.Errorf("topology: negative tier sizes")
	}
	rng := xrand.New(cfg.Seed)
	total := cfg.nodes()
	g := New(fmt.Sprintf("tiered-%d", total), total)

	peer := func(a, b NodeID) error {
		if err := g.AddEdge(a, b); err != nil {
			return err
		}
		return g.SetRelationship(a, b, RelPeer)
	}
	customer := func(c, p NodeID) error {
		if err := g.AddEdge(c, p); err != nil {
			return err
		}
		return g.SetRelationship(c, p, RelProvider)
	}

	next := NodeID(0)
	alloc := func() NodeID { id := next; next++; return id }

	tier1 := make([]NodeID, cfg.Tier1)
	for i := range tier1 {
		tier1[i] = alloc()
	}
	for i := 0; i < cfg.Tier1; i++ {
		for j := i + 1; j < cfg.Tier1; j++ {
			if err := peer(tier1[i], tier1[j]); err != nil {
				return nil, err
			}
		}
	}
	tier2 := make([]NodeID, cfg.Tier2)
	for i := range tier2 {
		tier2[i] = alloc()
		primary := tier1[rng.Intn(cfg.Tier1)]
		if err := customer(tier2[i], primary); err != nil {
			return nil, err
		}
		if cfg.Tier2Multihome && cfg.Tier1 > 1 {
			backup := tier1[rng.Intn(cfg.Tier1)]
			if backup != primary {
				if err := customer(tier2[i], backup); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, t2 := range tier2 {
		for s := 0; s < cfg.StubsPerTier2; s++ {
			if err := customer(alloc(), t2); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
