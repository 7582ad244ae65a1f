package topology

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format. Relationship-annotated
// edges are directed customer→provider with peer links drawn undirected
// (dir=none), matching the usual AS-graph visual convention.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := strings.Map(func(r rune) rune {
		if r == '-' || r == ' ' {
			return '_'
		}
		return r
	}, g.name)
	fmt.Fprintf(bw, "graph %s {\n", name)
	for id := 0; id < g.NumNodes(); id++ {
		fmt.Fprintf(bw, "  %d;\n", id)
	}
	for _, e := range g.edges {
		switch g.Relationship(e.A, e.B) {
		case RelProvider: // B provides for A: draw customer -> provider
			fmt.Fprintf(bw, "  %d -- %d [label=\"c2p\"];\n", e.A, e.B)
		case RelCustomer:
			fmt.Fprintf(bw, "  %d -- %d [label=\"c2p\"];\n", e.B, e.A)
		case RelPeer:
			fmt.Fprintf(bw, "  %d -- %d [label=\"p2p\"];\n", e.A, e.B)
		default:
			fmt.Fprintf(bw, "  %d -- %d;\n", e.A, e.B)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteTSV emits one line per edge: "a<TAB>b<TAB>rel" where rel is a's view
// of b ("none", "customer", "provider", "peer"). The node count is encoded in
// a leading "#nodes N" comment so isolated trailing nodes change the
// encoding.
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	b := append(bw.AvailableBuffer(), "#nodes\t"...)
	b = strconv.AppendInt(b, int64(g.NumNodes()), 10)
	bw.Write(append(b, '\n'))
	edges := g.Edges()
	slices.SortFunc(edges, func(x, y Edge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	for _, e := range edges {
		b = strconv.AppendInt(bw.AvailableBuffer(), int64(e.A), 10)
		b = strconv.AppendInt(append(b, '\t'), int64(e.B), 10)
		b = append(append(b, '\t'), g.Relationship(e.A, e.B).String()...)
		bw.Write(append(b, '\n'))
	}
	return bw.Flush() // reports the first failed Write, if any
}

// TSVDigest returns a SHA-256 hash that has consumed exactly the bytes
// WriteTSV emits, ready for the caller to write more into: a content key for
// "this topology plus ...". The hash state is memoised on the graph (any
// mutation drops it, Clone carries it), so only the first call after a change
// encodes and hashes the graph; later calls resume from the saved state and
// produce byte-identical sums. Safe for concurrent use on a graph nobody is
// mutating.
func (g *Graph) TSVDigest() (hash.Hash, error) {
	h := sha256.New()
	if state := g.tsvDigest.Load(); state != nil {
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(*state); err != nil {
			return nil, fmt.Errorf("topology: resume digest: %w", err)
		}
		return h, nil
	}
	if err := g.WriteTSV(h); err != nil {
		return nil, err
	}
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("topology: save digest: %w", err)
	}
	g.tsvDigest.Store(&state)
	return h, nil
}
