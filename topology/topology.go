// Package topology models the AS-level graphs the experiments run on and
// provides the two topology families used in the paper's evaluation
// (Section 5.1): regular meshes (2-D grids with wrap-around, so all nodes are
// topologically equal) and Internet-derived graphs with a long-tailed degree
// distribution, annotated with customer-provider / peer-peer relationships
// for the no-valley routing policy study (Section 7).
//
// The paper used AS graphs derived from BGP routing tables (BJ Premore's
// SSFNet gallery, no longer available). InternetDerived substitutes a
// preferential-attachment generator that reproduces the two properties the
// paper relies on: the long-tailed degree distribution (drives the richness
// of alternate paths and hence path exploration) and a valley-free business
// hierarchy (drives the policy results).
package topology

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// NodeID identifies a node (an AS) within a Graph. IDs are dense: a graph
// with n nodes uses IDs 0..n-1.
type NodeID int

// Edge is an undirected adjacency between two nodes. Edges are stored with
// A < B.
type Edge struct {
	A, B NodeID
}

// Relationship describes the business relationship of a neighbor from a
// node's point of view, used by the no-valley export policy.
type Relationship int

const (
	// RelNone means no relationship annotation (shortest-path policy
	// topologies such as the mesh).
	RelNone Relationship = iota
	// RelCustomer: the neighbor is my customer (I provide transit to it).
	RelCustomer
	// RelProvider: the neighbor is my provider.
	RelProvider
	// RelPeer: settlement-free peer.
	RelPeer
)

// String returns a short human-readable name for the relationship.
func (r Relationship) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelCustomer:
		return "customer"
	case RelProvider:
		return "provider"
	case RelPeer:
		return "peer"
	default:
		return fmt.Sprintf("Relationship(%d)", int(r))
	}
}

// invert maps my-view to the neighbor's view of the same link.
func (r Relationship) invert() Relationship {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// Graph is an undirected multigraph-free graph over dense NodeIDs with
// optional per-link relationship annotations. The zero value is an empty
// graph; use New to preallocate nodes.
type Graph struct {
	name  string
	adj   [][]NodeID
	edges []Edge
	rel   map[[2]NodeID]Relationship // keyed (from, to); both directions stored

	// tsvDigest memoises TSVDigest: the marshalled SHA-256 state after the
	// canonical TSV encoding, nil until first asked for and after any
	// mutation. Atomic because hashing is logically a read, and readers of a
	// shared graph may race to fill it (they store equal bytes).
	tsvDigest atomic.Pointer[[]byte]
}

// New returns a graph with n isolated nodes. The name is informational and
// appears in String and DOT output.
func New(name string, n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		name: name,
		adj:  make([][]NodeID, n),
		rel:  make(map[[2]NodeID]Relationship),
	}
}

// Name returns the graph's informational name.
func (g *Graph) Name() string { return g.name }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.tsvDigest.Store(nil)
	g.adj = append(g.adj, nil)
	return NodeID(len(g.adj) - 1)
}

// valid reports whether id names an existing node.
func (g *Graph) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(g.adj)
}

// AddEdge connects a and b. It returns an error for self-loops, unknown
// nodes, or duplicate edges — all of which indicate generator bugs rather
// than recoverable conditions, but are returned (not panicked) so callers
// building graphs from external data can report them.
func (g *Graph) AddEdge(a, b NodeID) error {
	switch {
	case !g.valid(a) || !g.valid(b):
		return fmt.Errorf("topology: edge (%d,%d) references unknown node", a, b)
	case a == b:
		return fmt.Errorf("topology: self-loop on node %d", a)
	case g.HasEdge(a, b):
		return fmt.Errorf("topology: duplicate edge (%d,%d)", a, b)
	}
	if a > b {
		a, b = b, a
	}
	g.tsvDigest.Store(nil)
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.edges = append(g.edges, Edge{A: a, B: b})
	return nil
}

// mustEdge is AddEdge for generators whose construction cannot produce
// invalid edges; an error is a bug in this package.
func (g *Graph) mustEdge(a, b NodeID) {
	if err := g.AddEdge(a, b); err != nil {
		panic("topology: internal generator bug: " + err.Error())
	}
}

// HasEdge reports whether a and b are adjacent.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if !g.valid(a) || !g.valid(b) {
		return false
	}
	// Scan the smaller adjacency list.
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, n := range g.adj[a] {
		if n == b {
			return true
		}
	}
	return false
}

// Neighbors returns the nodes adjacent to id. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if !g.valid(id) {
		return nil
	}
	return g.adj[id]
}

// Degree returns the number of neighbors of id.
func (g *Graph) Degree(id NodeID) int {
	if !g.valid(id) {
		return 0
	}
	return len(g.adj[id])
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// SetRelationship annotates the link a-b with a's view of b (and implicitly
// b's inverted view of a). The edge must exist.
func (g *Graph) SetRelationship(a, b NodeID, relOfBFromA Relationship) error {
	if !g.HasEdge(a, b) {
		return fmt.Errorf("topology: cannot annotate missing edge (%d,%d)", a, b)
	}
	g.tsvDigest.Store(nil)
	g.rel[[2]NodeID{a, b}] = relOfBFromA
	g.rel[[2]NodeID{b, a}] = relOfBFromA.invert()
	return nil
}

// Relationship returns a's view of neighbor b, or RelNone if unannotated.
func (g *Graph) Relationship(a, b NodeID) Relationship {
	return g.rel[[2]NodeID{a, b}]
}

// Annotated reports whether any link carries a relationship annotation.
func (g *Graph) Annotated() bool { return len(g.rel) > 0 }

// Connected reports whether every node is reachable from node 0 (vacuously
// true for empty graphs).
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	return len(g.BFS(0)) == n
}

// BFS returns hop distances from src to every reachable node.
func (g *Graph) BFS(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int)
	if !g.valid(src) {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum BFS distance from src to any reachable
// node.
func (g *Graph) Eccentricity(src NodeID) int {
	max := 0
	for _, d := range g.BFS(src) {
		if d > max {
			max = d
		}
	}
	return max
}

// NodesAtDistance returns the nodes exactly h hops from src, sorted by ID
// (deterministic). Used by the Fig 7 experiment to pick a router 7 hops from
// the flapping origin.
func (g *Graph) NodesAtDistance(src NodeID, h int) []NodeID {
	var out []NodeID
	for id, d := range g.BFS(src) {
		if d == h {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DegreeHistogram returns counts indexed by degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for id := range g.adj {
		h[len(g.adj[id])]++
	}
	return h
}

// Clone returns a deep copy of the graph (nodes, edges, annotations). The
// copy encodes identically, so it inherits a memoised TSVDigest.
func (g *Graph) Clone() *Graph {
	c := New(g.name, g.NumNodes())
	c.tsvDigest.Store(g.tsvDigest.Load())
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for id := range g.adj {
		c.adj[id] = append([]NodeID(nil), g.adj[id]...)
	}
	for k, v := range g.rel {
		c.rel[k] = v
	}
	return c
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d nodes, %d edges", g.name, g.NumNodes(), g.NumEdges())
}
