package topology

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func tsv(t *testing.T, g *Graph, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := g.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShapeGenerateMatchesGenerators: for every family, Shape.Generate builds
// the graph the generator builds when called directly — same name, same
// bytes — whatever the fields the family does not read hold.
func TestShapeGenerateMatchesGenerators(t *testing.T) {
	for _, tc := range []struct {
		shape  Shape
		direct func() (*Graph, error)
		isp    NodeID
	}{
		{Shape{Family: "mesh", Rows: 4, Cols: 5, Nodes: 99, Seed: 7}, func() (*Graph, error) { return Torus(4, 5) }, 0},
		{Shape{Rows: 3, Cols: 3}, func() (*Graph, error) { return Torus(3, 3) }, 0},
		{Shape{Family: "internet", Rows: 9, Cols: 9, Nodes: 40, Seed: 3}, func() (*Graph, error) { return InternetDerived(DefaultInternetConfig(40, 3)) }, 20},
		{Shape{Family: "waxman", Nodes: 30, Seed: 5}, func() (*Graph, error) { return Waxman(30, 5) }, 0},
		{Shape{Family: "tiered", Nodes: 1, Seed: 9}, func() (*Graph, error) { return Tiered(9) }, 0},
		{Shape{Family: "ring", Nodes: 6, Seed: 1}, func() (*Graph, error) { return Ring(6) }, 0},
		{Shape{Family: "line", Nodes: 5}, func() (*Graph, error) { return Line(5) }, 0},
		{Shape{Family: "star", Nodes: 7}, func() (*Graph, error) { return Star(7) }, 0},
		{Shape{Family: "fullmesh", Nodes: 4}, func() (*Graph, error) { return FullMesh(4) }, 0},
	} {
		g, err := tc.shape.Generate()
		got := tsv(t, g, err)
		d, err := tc.direct()
		if want := tsv(t, d, err); got != want || g.Name() != d.Name() {
			t.Errorf("%+v: Generate built %s, the generator %s:\n%s\n%s", tc.shape, g.Name(), d.Name(), got, want)
		}
		if n := tc.shape.Routers(); n != g.NumNodes() {
			t.Errorf("%+v: Routers() = %d, the graph has %d nodes", tc.shape, n, g.NumNodes())
		}
		if l := tc.shape.Links(); g.NumEdges() > l {
			t.Errorf("%+v: Links() = %d, the graph has %d edges", tc.shape, l, g.NumEdges())
		}
		if isp := tc.shape.DefaultISP(); isp != tc.isp {
			t.Errorf("%+v: DefaultISP() = %d, want %d", tc.shape, isp, tc.isp)
		}
	}
}

// TestShapeCanonical: the canonical form is the identity the generator sees,
// so it can key a cache of generated graphs.
func TestShapeCanonical(t *testing.T) {
	canon := func(s Shape) Shape {
		t.Helper()
		c, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if again, err := c.Canonical(); err != nil || again != c {
			t.Fatalf("Canonical is not idempotent: %+v -> %+v (%v)", c, again, err)
		}
		return c
	}
	mesh := canon(Shape{Family: "mesh", Rows: 4, Cols: 5, Nodes: 30, Seed: 1})
	if want := (Shape{Family: "mesh", Rows: 4, Cols: 5}); mesh != want {
		t.Fatalf("canonical mesh = %+v, want %+v", mesh, want)
	}
	for _, same := range []Shape{
		{Rows: 4, Cols: 5},
		{Family: "mesh", Rows: 4, Cols: 5, Seed: 77},
		{Family: "mesh", Rows: 4, Cols: 5, Nodes: 65000, Seed: 2},
	} {
		if c := canon(same); c != mesh {
			t.Errorf("%+v canonicalises to %+v, want %+v: a torus reads neither seed nor nodes", same, c, mesh)
		}
	}
	if other := canon(Shape{Rows: 5, Cols: 4}); other == mesh {
		t.Error("4x5 and 5x4 meshes share a canonical form")
	}

	inet := canon(Shape{Family: "internet", Rows: 9, Cols: 9, Nodes: 25, Seed: 1})
	if want := (Shape{Family: "internet", Nodes: 25, Seed: 1}); inet != want {
		t.Fatalf("canonical internet = %+v, want %+v", inet, want)
	}
	if canon(Shape{Family: "internet", Nodes: 25, Seed: 2}) == inet {
		t.Error("internet shapes that differ in seed share a canonical form")
	}
	if canon(Shape{Family: "internet", Nodes: 26, Seed: 1}) == inet {
		t.Error("internet shapes that differ in nodes share a canonical form")
	}
	if got, want := canon(Shape{Family: "ring", Nodes: 6, Seed: 4}), (Shape{Family: "ring", Nodes: 6}); got != want {
		t.Errorf("canonical ring = %+v, want %+v", got, want)
	}
	if got, want := canon(Shape{Family: "tiered", Nodes: 6, Rows: 2, Seed: 4}), (Shape{Family: "tiered", Seed: 4}); got != want {
		t.Errorf("canonical tiered = %+v, want %+v", got, want)
	}
}

// TestShapeRoutersDoesNotWrap: the counts that bound a request are safe on
// sizes whose product overflows, and on values Canonical would refuse.
func TestShapeRoutersDoesNotWrap(t *testing.T) {
	for _, tc := range []struct {
		shape          Shape
		routers, links int64
	}{
		{Shape{Rows: 100000, Cols: 100000}, min(10_000_000_000, math.MaxInt), min(20_000_000_000, math.MaxInt)},
		{Shape{Rows: math.MaxInt, Cols: 3}, math.MaxInt, math.MaxInt},
		{Shape{Rows: math.MaxInt/2 + 1, Cols: 2}, math.MaxInt, math.MaxInt},
		{Shape{Rows: math.MaxInt / 2, Cols: 1}, math.MaxInt / 2, math.MaxInt - 1},
		{Shape{Rows: 70000, Cols: 1}, 70000, 140000},
		{Shape{Rows: -1, Cols: 100000}, 0, 0},
		{Shape{Family: "internet", Nodes: 10_000_000, Rows: 3, Cols: 3}, 10_000_000, 20_000_000},
		{Shape{Family: "ring", Nodes: -5}, 0, 0},
		{Shape{Family: "tiered", Nodes: 10_000_000}, 76, 152},
		{Shape{Family: "hypercube", Nodes: 8}, 0, 0},
		{Shape{Family: "fullmesh", Nodes: 65536}, 65536, 65536 * 65535 / 2},
		{Shape{Family: "waxman", Nodes: 512}, 512, 130816},
		{Shape{Family: "waxman", Nodes: math.MaxInt / 2}, math.MaxInt / 2, math.MaxInt},
		{Shape{Family: "fullmesh", Nodes: math.MaxInt}, math.MaxInt, math.MaxInt},
		{Shape{Family: "fullmesh"}, 0, 0},
		{Shape{Family: "fullmesh", Nodes: 1}, 1, 0},
	} {
		if got := int64(tc.shape.Routers()); got != tc.routers {
			t.Errorf("%+v: Routers() = %d, want %d", tc.shape, got, tc.routers)
		}
		if got := int64(tc.shape.Links()); got != tc.links {
			t.Errorf("%+v: Links() = %d, want %d", tc.shape, got, tc.links)
		}
	}
}

// TestShapeRejections: every invalid shape is refused by Generate with a
// message naming the field at fault — by Canonical already when the family or
// a sign is wrong, by the family's generator when a size is too small.
func TestShapeRejections(t *testing.T) {
	for _, tc := range []struct {
		shape     Shape
		canonical bool // Canonical refuses it too
		wantErr   string
	}{
		{Shape{Family: "hypercube", Nodes: 8}, true, `unknown topology family "hypercube"`},
		{Shape{Family: "Mesh", Rows: 3, Cols: 3}, true, `unknown topology family "Mesh"`},
		{Shape{Rows: 2, Cols: 3}, false, "rows x cols 2x3 too small (need >= 3)"},
		{Shape{Rows: 3, Cols: 0}, false, "rows x cols 3x0 too small (need >= 3)"},
		{Shape{Rows: -1, Cols: 3}, true, "negative topology size (rows -1,"},
		{Shape{Rows: 3, Cols: -3}, true, "negative topology size (rows 3, cols -3,"},
		{Shape{Rows: 3, Cols: 3, Nodes: -5}, true, "nodes -5)"},
		{Shape{Family: "internet", Nodes: 25, Rows: -1}, true, "negative topology size (rows -1,"},
		{Shape{Family: "internet", Nodes: 2}, false, "internet-derived needs >= 3 nodes, got 2"},
		{Shape{Family: "waxman", Nodes: 1}, false, "waxman needs >= 2 nodes, got 1"},
		{Shape{Family: "ring", Nodes: 2}, false, "ring needs >= 3 nodes, got 2"},
		{Shape{Family: "line", Nodes: 1}, false, "line needs >= 2 nodes, got 1"},
		{Shape{Family: "star", Nodes: 0}, false, "star needs >= 2 nodes, got 0"},
		{Shape{Family: "fullmesh", Nodes: 1}, false, "full mesh needs >= 2 nodes, got 1"},
		{Shape{Family: "tiered", Nodes: -1}, true, "nodes -1)"},
	} {
		if c, err := tc.shape.Canonical(); tc.canonical && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) || !tc.canonical && err != nil {
			t.Errorf("%+v: Canonical() = %+v, %v; want an error mentioning %q: %t", tc.shape, c, err, tc.wantErr, tc.canonical)
		}
		if g, err := tc.shape.Generate(); err == nil || g != nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%+v: Generate() = %v, %v; want an error mentioning %q", tc.shape, g, err, tc.wantErr)
		}
	}
	// The smallest shape of every family.
	for _, ok := range []Shape{
		{Rows: 3, Cols: 3}, {Family: "internet", Nodes: 3}, {Family: "waxman", Nodes: 2}, {Family: "tiered"},
		{Family: "ring", Nodes: 3}, {Family: "line", Nodes: 2}, {Family: "star", Nodes: 2}, {Family: "fullmesh", Nodes: 2},
	} {
		if _, err := ok.Generate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
}
