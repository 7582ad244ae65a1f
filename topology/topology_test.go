package topology

import (
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New("empty", 0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("empty graph should be vacuously connected")
	}
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New("g", 0)
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 {
		t.Fatalf("node IDs = %d,%d, want 0,1", a, b)
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("edge not symmetric")
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", g.Degree(a), g.Degree(b))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New("g", 2)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("duplicate (reversed) edge accepted")
	}
}

func TestNeighborsOfUnknownNode(t *testing.T) {
	g := New("g", 1)
	if g.Neighbors(5) != nil {
		t.Fatal("Neighbors of unknown node != nil")
	}
	if g.Degree(-1) != 0 {
		t.Fatal("Degree of unknown node != 0")
	}
	if g.HasEdge(0, 9) {
		t.Fatal("HasEdge with unknown node = true")
	}
}

func TestTorusShape(t *testing.T) {
	g, err := Torus(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d, want 100", g.NumNodes())
	}
	// The paper's mesh: 100 nodes, 200 links (footnote 2 in Section 5.3).
	if g.NumEdges() != 200 {
		t.Fatalf("edges = %d, want 200", g.NumEdges())
	}
	for id := 0; id < g.NumNodes(); id++ {
		if d := g.Degree(NodeID(id)); d != 4 {
			t.Fatalf("torus node %d degree %d, want 4 (all nodes topologically equal)", id, d)
		}
	}
	if !g.Connected() {
		t.Fatal("torus not connected")
	}
}

func TestTorusRejectsSmallDimensions(t *testing.T) {
	for _, dims := range [][2]int{{2, 5}, {5, 2}, {0, 0}, {-1, 3}} {
		if _, err := Torus(dims[0], dims[1]); err == nil {
			t.Fatalf("Torus(%d,%d) accepted", dims[0], dims[1])
		}
	}
}

func TestTorusNonSquare(t *testing.T) {
	g, err := Torus(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 15 || g.NumEdges() != 30 {
		t.Fatalf("3x5 torus: %d nodes %d edges, want 15/30", g.NumNodes(), g.NumEdges())
	}
}

func TestLineRingStarFullMesh(t *testing.T) {
	line, err := Line(5)
	if err != nil {
		t.Fatal(err)
	}
	if line.NumEdges() != 4 || line.Degree(0) != 1 || line.Degree(2) != 2 {
		t.Fatalf("line wrong shape: %v edges", line.NumEdges())
	}

	ring, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if ring.NumEdges() != 6 {
		t.Fatalf("ring edges = %d, want 6", ring.NumEdges())
	}
	for i := 0; i < 6; i++ {
		if ring.Degree(NodeID(i)) != 2 {
			t.Fatalf("ring node %d degree != 2", i)
		}
	}

	star, err := Star(7)
	if err != nil {
		t.Fatal(err)
	}
	if star.Degree(0) != 6 || star.Degree(3) != 1 || star.NumEdges() != 6 {
		t.Fatal("star wrong shape")
	}

	fm, err := FullMesh(5)
	if err != nil {
		t.Fatal(err)
	}
	if fm.NumEdges() != 10 {
		t.Fatalf("K5 edges = %d, want 10", fm.NumEdges())
	}
}

func TestGeneratorArgumentValidation(t *testing.T) {
	if _, err := Line(1); err == nil {
		t.Fatal("Line(1) accepted")
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("Ring(2) accepted")
	}
	if _, err := Star(1); err == nil {
		t.Fatal("Star(1) accepted")
	}
	if _, err := FullMesh(1); err == nil {
		t.Fatal("FullMesh(1) accepted")
	}
}

func TestBFSDistancesOnRing(t *testing.T) {
	g, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(0)
	want := map[NodeID]int{0: 0, 1: 1, 7: 1, 2: 2, 6: 2, 3: 3, 5: 3, 4: 4}
	for id, d := range want {
		if dist[id] != d {
			t.Fatalf("dist[%d] = %d, want %d", id, dist[id], d)
		}
	}
	if g.Eccentricity(0) != 4 {
		t.Fatalf("ring-8 eccentricity = %d, want 4", g.Eccentricity(0))
	}
}

func TestNodesAtDistance(t *testing.T) {
	g, err := Torus(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	at7 := g.NodesAtDistance(0, 7)
	if len(at7) == 0 {
		t.Fatal("no nodes 7 hops away on 10x10 torus")
	}
	dist := g.BFS(0)
	for _, id := range at7 {
		if dist[id] != 7 {
			t.Fatalf("node %d reported at distance 7 but BFS says %d", id, dist[id])
		}
	}
	// Deterministically sorted.
	for i := 1; i < len(at7); i++ {
		if at7[i] <= at7[i-1] {
			t.Fatal("NodesAtDistance not sorted")
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New("two-islands", 4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if len(g.BFS(0)) != 2 {
		t.Fatalf("BFS reached %d nodes, want 2", len(g.BFS(0)))
	}
}

func TestInternetDerivedBasics(t *testing.T) {
	g, err := InternetDerived(DefaultInternetConfig(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("internet-derived graph not connected")
	}
	// Preferential attachment with m=2: 3 seed edges + 2 per remaining node.
	wantEdges := 3 + 2*(100-3)
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
}

func TestInternetDerivedLongTail(t *testing.T) {
	g, err := InternetDerived(DefaultInternetConfig(208, 11))
	if err != nil {
		t.Fatal(err)
	}
	// Long-tailed distribution: max degree far above the mean (~4), and the
	// majority of nodes at minimum degree.
	hist := g.DegreeHistogram()
	maxDegree := 0
	for d := range hist {
		maxDegree = max(maxDegree, d)
	}
	if maxDegree < 12 {
		t.Fatalf("max degree = %d, expected a hub >= 12", maxDegree)
	}
	low := hist[2] + hist[3]
	if low < g.NumNodes()/2 {
		t.Fatalf("only %d/%d nodes with degree 2-3; distribution not long-tailed", low, g.NumNodes())
	}
}

func TestInternetDerivedValleyFree(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 99} {
		g, err := InternetDerived(DefaultInternetConfig(100, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.Annotated() {
			t.Fatal("internet-derived graph lacks relationship annotations")
		}
		if err := ValleyFree(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInternetDerivedDeterministic(t *testing.T) {
	a, err := InternetDerived(DefaultInternetConfig(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := InternetDerived(DefaultInternetConfig(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("edge counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
		if a.Relationship(ae[i].A, ae[i].B) != b.Relationship(be[i].A, be[i].B) {
			t.Fatalf("relationship differs on edge %v", ae[i])
		}
	}
}

func TestInternetDerivedConfigValidation(t *testing.T) {
	if _, err := InternetDerived(InternetConfig{Nodes: 2}); err == nil {
		t.Fatal("Nodes=2 accepted")
	}
}

func TestRelationshipViewsConsistent(t *testing.T) {
	g := New("rel", 2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(0, 1, RelProvider); err != nil {
		t.Fatal(err)
	}
	if got := g.Relationship(0, 1); got != RelProvider {
		t.Fatalf("rel(0,1) = %v", got)
	}
	if got := g.Relationship(1, 0); got != RelCustomer {
		t.Fatalf("rel(1,0) = %v, want customer", got)
	}
	// Peer is symmetric.
	if err := g.SetRelationship(0, 1, RelPeer); err != nil {
		t.Fatal(err)
	}
	if g.Relationship(1, 0) != RelPeer {
		t.Fatal("peer not symmetric")
	}
}

func TestSetRelationshipRequiresEdge(t *testing.T) {
	g := New("rel", 3)
	if err := g.SetRelationship(0, 1, RelPeer); err == nil {
		t.Fatal("annotating missing edge accepted")
	}
}

func TestValleyFreeDetectsCycle(t *testing.T) {
	g := New("cycle", 3)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// 0's provider is 1, 1's provider is 2, 2's provider is 0: a cycle.
	if err := g.SetRelationship(0, 1, RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(1, 2, RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(2, 0, RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := ValleyFree(g); err == nil {
		t.Fatal("provider cycle not detected")
	}
}

func TestValleyFreeDetectsMissingAnnotation(t *testing.T) {
	g := New("partial", 3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelationship(0, 1, RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := ValleyFree(g); err == nil {
		t.Fatal("missing annotation not detected")
	}
}

func TestValleyFreeAcceptsPureHierarchy(t *testing.T) {
	// A tree of providers: 0 at the top.
	g := New("tree", 7)
	parents := []NodeID{0, 0, 1, 1, 2, 2}
	for i, p := range parents {
		child := NodeID(i + 1)
		if err := g.AddEdge(child, p); err != nil {
			t.Fatal(err)
		}
		if err := g.SetRelationship(child, p, RelProvider); err != nil {
			t.Fatal(err)
		}
	}
	if err := ValleyFree(g); err != nil {
		t.Fatal(err)
	}
}

func TestRelationshipStringAndInvert(t *testing.T) {
	cases := []struct {
		rel Relationship
		str string
		inv Relationship
	}{
		{RelNone, "none", RelNone},
		{RelCustomer, "customer", RelProvider},
		{RelProvider, "provider", RelCustomer},
		{RelPeer, "peer", RelPeer},
	}
	for _, c := range cases {
		if c.rel.String() != c.str {
			t.Fatalf("%v.String() = %q", c.rel, c.rel.String())
		}
		if c.rel.invert() != c.inv {
			t.Fatalf("%v.invert() = %v, want %v", c.rel, c.rel.invert(), c.inv)
		}
	}
	if Relationship(99).String() == "" {
		t.Fatal("unknown relationship String empty")
	}
}

func TestQuickTorusAllNodesEqualDegree(t *testing.T) {
	f := func(r, c uint8) bool {
		rows := int(r%8) + 3
		cols := int(c%8) + 3
		g, err := Torus(rows, cols)
		if err != nil {
			return false
		}
		for id := 0; id < g.NumNodes(); id++ {
			if g.Degree(NodeID(id)) != 4 {
				return false
			}
		}
		return g.Connected() && g.NumEdges() == 2*rows*cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInternetDerivedAlwaysValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 10
		g, err := InternetDerived(DefaultInternetConfig(n, seed))
		if err != nil {
			return false
		}
		return g.Connected() && ValleyFree(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
