package topology

import (
	"fmt"
	"math"

	"rfd/internal/xrand"
)

// The Waxman generator's classic parameters, tuned to yield average degree
// ≈ 4 at n = 100: waxmanAlpha scales overall edge density and waxmanBeta the
// reach of long edges (larger values make distant pairs more likely to
// connect).
const (
	waxmanAlpha = 0.15
	waxmanBeta  = 0.6
)

// Waxman generates the classic Waxman (1988) random topology: nodes placed
// uniformly in the unit square, each pair connected with probability
// α·exp(−d / (β·√2)), with seed driving placement and edge selection. The
// result is forced connected by linking each stranded component to its
// geometrically nearest connected node, so it is usable directly as a
// simulation substrate. Unannotated (shortest-path policy only).
func Waxman(nodes int, seed uint64) (*Graph, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("topology: waxman needs >= 2 nodes, got %d", nodes)
	}
	rng := xrand.New(seed)
	type point struct{ x, y float64 }
	pts := make([]point, nodes)
	for i := range pts {
		pts[i] = point{rng.Float64(), rng.Float64()}
	}
	dist := func(a, b int) float64 {
		dx, dy := pts[a].x-pts[b].x, pts[a].y-pts[b].y
		// Each square rounds on its own, so no target fuses one into the sum.
		return math.Sqrt(float64(dx*dx) + float64(dy*dy))
	}
	g := New(fmt.Sprintf("waxman-%d", nodes), nodes)
	maxDist := math.Sqrt2
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			p := waxmanAlpha * math.Exp(-dist(i, j)/(waxmanBeta*maxDist))
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

// The tiered hierarchy's shape: a core of tier1Size tier-1s, tier2Size
// transit ASes, each multihomed to two tier-1s where the draw allows, and
// stubsPerTier2 stubs under each — tieredNodes = 76 ASes in all.
const (
	tier1Size     = 4
	tier2Size     = 12
	stubsPerTier2 = 5
	tieredNodes   = tier1Size + tier2Size*(1+stubsPerTier2)
)

// Tiered generates a three-level AS hierarchy annotated for the no-valley
// policy, in the spirit of the classic Internet structure the paper's policy
// discussion assumes:
//
//   - tier-1: a full clique of peer-peer links (the settlement-free core) —
//     any route can cross exactly one peer link at the top;
//   - tier-2: transit ASes, each a customer of two tier-1 providers (one
//     when both draws pick the same);
//   - stubs: customers of one tier-2 each.
//
// Every AS is reachable from every other under no-valley export rules
// (up via providers, once across the core, down to customers), and the
// customer→provider digraph is acyclic by construction. seed drives the
// provider selection.
func Tiered(seed uint64) (*Graph, error) {
	rng := xrand.New(seed)
	g := New(fmt.Sprintf("tiered-%d", tieredNodes), tieredNodes)

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

	tier1 := make([]NodeID, tier1Size)
	for i := range tier1 {
		tier1[i] = alloc()
	}
	for i := 0; i < tier1Size; i++ {
		for j := i + 1; j < tier1Size; j++ {
			if err := peer(tier1[i], tier1[j]); err != nil {
				return nil, err
			}
		}
	}
	tier2 := make([]NodeID, tier2Size)
	for i := range tier2 {
		tier2[i] = alloc()
		primary := tier1[rng.Intn(tier1Size)]
		if err := customer(tier2[i], primary); err != nil {
			return nil, err
		}
		if backup := tier1[rng.Intn(tier1Size)]; backup != primary {
			if err := customer(tier2[i], backup); err != nil {
				return nil, err
			}
		}
	}
	for _, t2 := range tier2 {
		for s := 0; s < stubsPerTier2; s++ {
			if err := customer(alloc(), t2); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
