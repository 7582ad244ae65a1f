package topology

import (
	"testing"
	"testing/quick"
)

func TestWaxmanBasics(t *testing.T) {
	g, err := Waxman(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("waxman graph not connected")
	}
	if g.Annotated() {
		t.Fatal("waxman graph should be unannotated")
	}
	// Density sanity: default parameters target average degree ~3-6.
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	if avg < 1.5 || avg > 12 {
		t.Fatalf("average degree %.1f out of sane band", avg)
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	a, err := Waxman(60, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(60, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	c, err := Waxman(60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() == a.NumEdges() {
		same := true
		ce := c.Edges()
		for i := range ae {
			if ae[i] != ce[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestWaxmanValidation(t *testing.T) {
	if _, err := Waxman(1, 0); err == nil {
		t.Fatal("1 node accepted")
	}
}

func TestQuickWaxmanAlwaysConnected(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 5
		g, err := Waxman(n, seed)
		return err == nil && g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTieredShape(t *testing.T) {
	g, err := Tiered(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 76 {
		t.Fatalf("nodes = %d, want 4 + 12·(1+5) = 76", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("tiered graph not connected")
	}
	if !g.Annotated() {
		t.Fatal("tiered graph lacks annotations")
	}
	if err := ValleyFree(g); err != nil {
		t.Fatal(err)
	}
}

func TestTieredRelationshipStructure(t *testing.T) {
	g, err := Tiered(7)
	if err != nil {
		t.Fatal(err)
	}
	peers, c2p := 0, 0
	for _, e := range g.Edges() {
		switch g.Relationship(e.A, e.B) {
		case RelPeer:
			peers++
		case RelCustomer, RelProvider:
			c2p++
		default:
			t.Fatalf("edge %v unannotated", e)
		}
	}
	// Peer links: exactly the tier-1 clique.
	if wantPeers := tier1Size * (tier1Size - 1) / 2; peers != wantPeers {
		t.Fatalf("peer links = %d, want %d", peers, wantPeers)
	}
	// Customer links: stubs have exactly one provider; tier-2s one or two.
	minC2P := tier2Size + tier2Size*stubsPerTier2
	maxC2P := 2*tier2Size + tier2Size*stubsPerTier2
	if c2p < minC2P || c2p > maxC2P {
		t.Fatalf("customer links = %d, want in [%d, %d]", c2p, minC2P, maxC2P)
	}
	// Tier-1 ASes (IDs 0..tier1Size-1) must have no providers.
	for id := 0; id < tier1Size; id++ {
		for _, nb := range g.Neighbors(NodeID(id)) {
			if g.Relationship(NodeID(id), nb) == RelProvider {
				t.Fatalf("tier-1 AS %d has a provider", id)
			}
		}
	}
}
