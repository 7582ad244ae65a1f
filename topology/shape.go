package topology

import (
	"cmp"
	"fmt"
	"math"
)

// Shape names a generated topology by family and size — the form a run is
// asked for on a command line or in a service request — and is the one place
// that knows which families exist, which sizes each reads and where the ispAS
// goes by default. It is comparable, and its Canonical form is exactly what the
// generator reads: a correct cache key for the graph it generates.
type Shape struct {
	// Family is mesh (also ""), internet, waxman, tiered, ring, line, star or
	// fullmesh.
	Family string
	// Rows and Cols size the mesh; Nodes sizes every other family but tiered,
	// whose size DefaultTieredConfig fixes.
	Rows, Cols, Nodes int
	// Seed drives the randomised families: internet, waxman and tiered.
	Seed uint64
}

// family is one generator: which Shape fields it reads, whether it examines
// every pair of nodes, and how to call it.
type family struct {
	grid, sized, seeded, dense bool
	generate                   func(Shape) (*Graph, error)
}

var families = map[string]family{
	"mesh":     {grid: true, generate: func(s Shape) (*Graph, error) { return Torus(s.Rows, s.Cols) }},
	"internet": {sized: true, seeded: true, generate: func(s Shape) (*Graph, error) { return InternetDerived(DefaultInternetConfig(s.Nodes, s.Seed)) }},
	"waxman":   {sized: true, seeded: true, dense: true, generate: func(s Shape) (*Graph, error) { return Waxman(DefaultWaxmanConfig(s.Nodes, s.Seed)) }},
	"tiered":   {seeded: true, generate: func(s Shape) (*Graph, error) { return Tiered(DefaultTieredConfig(s.Seed)) }},
	"ring":     {sized: true, generate: func(s Shape) (*Graph, error) { return Ring(s.Nodes) }},
	"line":     {sized: true, generate: func(s Shape) (*Graph, error) { return Line(s.Nodes) }},
	"star":     {sized: true, generate: func(s Shape) (*Graph, error) { return Star(s.Nodes) }},
	"fullmesh": {sized: true, dense: true, generate: func(s Shape) (*Graph, error) { return FullMesh(s.Nodes) }},
}

// lookup resolves the family, reading the empty name as the paper's mesh.
func (s Shape) lookup() (string, family, error) {
	name := cmp.Or(s.Family, "mesh")
	f, ok := families[name]
	if !ok {
		return "", f, fmt.Errorf("topology: unknown topology family %q (want mesh, internet, waxman, tiered, ring, line, star or fullmesh)", s.Family)
	}
	return name, f, nil
}

// Canonical validates what a Shape alone can — the family exists and no size
// is negative, in any field (a caller's bug, read or not); a size too small is
// the generator's to refuse — and returns s with the family spelled out and
// every field the family does not read zeroed: two mesh shapes that differ
// only in Seed or Nodes are == once canonical, two internet shapes that differ
// in Seed are not.
func (s Shape) Canonical() (Shape, error) {
	name, f, err := s.lookup()
	if err != nil {
		return Shape{}, err
	}
	if s.Rows < 0 || s.Cols < 0 || s.Nodes < 0 {
		return Shape{}, fmt.Errorf("topology: negative topology size (rows %d, cols %d, nodes %d)", s.Rows, s.Cols, s.Nodes)
	}
	c := Shape{Family: name}
	if f.grid {
		c.Rows, c.Cols = s.Rows, s.Cols
	}
	if f.sized {
		c.Nodes = s.Nodes
	}
	if f.seeded {
		c.Seed = s.Seed
	}
	return c, nil
}

// Routers returns how many nodes Generate would build, without building them:
// the number to bound before anything is allocated. It is safe on any value: an
// invalid shape counts 0, a mesh whose rows×cols overflows math.MaxInt.
func (s Shape) Routers() int {
	_, f, err := s.lookup()
	switch {
	case err != nil || s.Rows < 0 || s.Cols < 0 || s.Nodes < 0:
		return 0
	case f.grid && s.Cols > 0 && s.Rows > math.MaxInt/s.Cols:
		return math.MaxInt
	case f.grid:
		return s.Rows * s.Cols
	case f.sized:
		return s.Nodes
	}
	return DefaultTieredConfig(s.Seed).nodes()
}

// Links returns an upper bound on the links Generate would add, which for the
// dense families (waxman, fullmesh) is also the node pairs it would examine:
// Routers choose 2 for those, twice Routers for the rest. Node counts alone do
// not bound a generator's memory and time; this does. Like Routers it is safe
// on any value and saturates at math.MaxInt.
func (s Shape) Links() int {
	n := s.Routers()
	if _, f, _ := s.lookup(); f.dense {
		// n(n-1)/2 with the even factor halved first, so the product
		// overflows only when the count itself does.
		a, b := n, n-1
		if a%2 == 0 {
			a /= 2
		} else {
			b /= 2
		}
		if a > 0 && b > math.MaxInt/a {
			return math.MaxInt
		}
		return a * b
	}
	if n > math.MaxInt/2 {
		return math.MaxInt
	}
	return 2 * n
}

// Generate builds the topology s describes. Equal canonical shapes generate
// equal graphs.
func (s Shape) Generate() (*Graph, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return families[c.Family].generate(c)
}

// DefaultISP returns the node the originAS attaches to when the caller names
// none: node 0 (all torus nodes are topologically equal, so the choice is
// without loss of generality), except on the Internet-derived topology, where
// node 0 is always a core AS and the mid-ID node stands in for the paper's
// random pick.
func (s Shape) DefaultISP() NodeID {
	if s.Family == "internet" {
		return NodeID(s.Nodes / 2)
	}
	return 0
}
