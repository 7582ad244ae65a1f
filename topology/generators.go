package topology

import (
	"fmt"
	"sort"

	"rfd/internal/xrand"
)

// Torus returns the paper's "mesh" topology: a rows×cols 2-D grid in which
// nodes at opposite edges are connected, so all nodes are topologically equal
// (Section 5.1). A 10×10 torus has 100 nodes and 200 links, matching the
// simulation setup and the damped-link-count ceiling of 400 in Fig 10.
//
// Both dimensions must be >= 3 so wrap-around links do not duplicate grid
// links.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("topology: torus rows x cols %dx%d too small (need >= 3)", rows, cols)
	}
	g := New(fmt.Sprintf("torus-%dx%d", rows, cols), rows*cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.mustEdge(id(r, c), id(r, (c+1)%cols))
			g.mustEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return g, nil
}

// Line returns a path graph on n nodes (0-1-2-…-n-1).
func Line(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: line needs >= 2 nodes, got %d", n)
	}
	g := New(fmt.Sprintf("line-%d", n), n)
	for i := 0; i < n-1; i++ {
		g.mustEdge(NodeID(i), NodeID(i+1))
	}
	return g, nil
}

// Ring returns a cycle on n nodes.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs >= 3 nodes, got %d", n)
	}
	g := New(fmt.Sprintf("ring-%d", n), n)
	for i := 0; i < n; i++ {
		g.mustEdge(NodeID(i), NodeID((i+1)%n))
	}
	return g, nil
}

// Star returns a star with node 0 at the center and n-1 leaves.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs >= 2 nodes, got %d", n)
	}
	g := New(fmt.Sprintf("star-%d", n), n)
	for i := 1; i < n; i++ {
		g.mustEdge(0, NodeID(i))
	}
	return g, nil
}

// FullMesh returns the complete graph on n nodes.
func FullMesh(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: full mesh needs >= 2 nodes, got %d", n)
	}
	g := New(fmt.Sprintf("fullmesh-%d", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.mustEdge(NodeID(i), NodeID(j))
		}
	}
	return g, nil
}

// InternetConfig parameterizes the Internet-derived generator.
type InternetConfig struct {
	// Nodes is the number of ASes (the paper uses 100 for Figs 8/9 and 208
	// for Fig 15).
	Nodes int
	// Seed drives all randomness in the construction.
	Seed uint64
}

// DefaultInternetConfig returns the configuration used by the paper-scale
// experiments.
func DefaultInternetConfig(nodes int, seed uint64) InternetConfig {
	return InternetConfig{Nodes: nodes, Seed: seed}
}

// The Internet-derived generator's shape: each newly attached AS brings
// linksPerNode links (the preferential attachment parameter m; 2 approximates
// the average degree of the mid-2000s AS graph, ~4), and a link whose
// endpoints are both in the highest-degree core is re-annotated peer-peer with
// probability peerFraction. All other links are customer-provider.
const (
	linksPerNode = 2
	peerFraction = 0.5
)

// InternetDerived generates a connected graph with a long-tailed degree
// distribution via preferential attachment, annotated with valley-free
// business relationships:
//
//   - Every attachment edge points from the newly added AS (customer) to an
//     already-present AS (provider). Because "provider" always has a smaller
//     node ID, the provider hierarchy is acyclic by construction.
//   - A peerFraction share of links whose endpoints are both in the top of
//     the degree ranking is re-annotated peer-peer, modelling the
//     settlement-free core.
//
// This substitutes for the paper's Internet-derived topologies from BGP
// routing tables; see DESIGN.md.
func InternetDerived(cfg InternetConfig) (*Graph, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("topology: internet-derived needs >= 3 nodes, got %d", cfg.Nodes)
	}
	rng := xrand.New(cfg.Seed)
	g := New(fmt.Sprintf("internet-%d", cfg.Nodes), cfg.Nodes)

	// Seed core: a triangle of mutually peered ASes.
	g.mustEdge(0, 1)
	g.mustEdge(1, 2)
	g.mustEdge(0, 2)

	// repeated holds one entry per edge endpoint, so sampling uniformly from
	// it implements degree-proportional (preferential) attachment.
	repeated := []NodeID{0, 0, 1, 1, 2, 2}

	for v := NodeID(3); int(v) < cfg.Nodes; v++ {
		chosen := make(map[NodeID]bool, linksPerNode)
		for len(chosen) < linksPerNode {
			t := repeated[rng.Intn(len(repeated))]
			if t != v && !chosen[t] {
				chosen[t] = true
			}
		}
		// Deterministic edge insertion order.
		targets := make([]NodeID, 0, len(chosen))
		for t := range chosen {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, t := range targets {
			g.mustEdge(v, t)
			// v is the customer of t.
			if err := g.SetRelationship(v, t, RelProvider); err != nil {
				return nil, err
			}
			repeated = append(repeated, v, t)
		}
	}

	// Convert links among the highest-degree nodes to peer-peer. Rank nodes
	// by (degree desc, id asc); a link is "core" if both endpoints are in
	// the top coreSize.
	coreSize := cfg.Nodes / 10
	if coreSize < 3 {
		coreSize = 3
	}
	rank := make([]NodeID, cfg.Nodes)
	for i := range rank {
		rank[i] = NodeID(i)
	}
	sort.Slice(rank, func(i, j int) bool {
		di, dj := g.Degree(rank[i]), g.Degree(rank[j])
		if di != dj {
			return di > dj
		}
		return rank[i] < rank[j]
	})
	core := make(map[NodeID]bool, coreSize)
	for _, id := range rank[:coreSize] {
		core[id] = true
	}
	for _, e := range g.edges {
		if core[e.A] && core[e.B] && rng.Float64() < peerFraction {
			if err := g.SetRelationship(e.A, e.B, RelPeer); err != nil {
				return nil, err
			}
		}
	}
	// The seed triangle is always peered: it is the tier-1 clique, and it
	// guarantees the provider hierarchy has well-defined roots.
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.SetRelationship(e[0], e[1], RelPeer); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ValleyFree verifies the relationship annotation is usable by the no-valley
// policy: every edge is annotated, views are consistent, and the
// customer→provider digraph is acyclic. Returns nil if valid.
func ValleyFree(g *Graph) error {
	if g.NumNodes() == 0 {
		return nil
	}
	// Build the customer→provider digraph while validating annotations.
	outs := make([][]NodeID, g.NumNodes())
	indeg := make([]int, g.NumNodes())
	for _, e := range g.Edges() {
		ra := g.Relationship(e.A, e.B)
		rb := g.Relationship(e.B, e.A)
		if ra == RelNone || rb == RelNone {
			return fmt.Errorf("topology: edge (%d,%d) lacks relationship annotation", e.A, e.B)
		}
		if ra.invert() != rb {
			return fmt.Errorf("topology: edge (%d,%d) has inconsistent views %v/%v", e.A, e.B, ra, rb)
		}
		switch ra {
		case RelProvider: // B is A's provider: arc A->B
			outs[e.A] = append(outs[e.A], e.B)
			indeg[e.B]++
		case RelCustomer: // A is B's provider: arc B->A
			outs[e.B] = append(outs[e.B], e.A)
			indeg[e.A]++
		}
	}
	// Kahn's algorithm: a topological order exists iff the hierarchy is
	// acyclic (no AS is transitively its own provider).
	var queue []NodeID
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, NodeID(id))
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for _, v := range outs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen != g.NumNodes() {
		return fmt.Errorf("topology: customer-provider hierarchy contains a cycle")
	}
	return nil
}
