// Command rfdtopo generates and inspects the topologies used by the
// experiments: the paper's torus mesh and the Internet-derived
// preferential-attachment graphs with AS relationships.
//
// Examples:
//
//	rfdtopo -type internet -nodes 208 -format stats
//	rfdtopo -type mesh -rows 10 -cols 10 -format tsv > mesh.tsv
//	rfdtopo -type internet -nodes 100 -format dot | dot -Tpng > as.png
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"rfd/internal/cli"
	"rfd/topology"
)

func main() { cli.Main("rfdtopo", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rfdtopo", flag.ContinueOnError)
	var (
		kind   = fs.String("type", "mesh", "mesh | internet | waxman | tiered | ring | line | star | fullmesh")
		rows   = fs.Int("rows", 10, "mesh rows")
		cols   = fs.Int("cols", 10, "mesh cols")
		nodes  = fs.Int("nodes", 100, "node count (every family but mesh and tiered)")
		seed   = fs.Uint64("seed", 1, "random seed (internet, waxman, tiered)")
		format = fs.String("format", "stats", "stats | tsv | dot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := topology.Shape{Family: *kind, Rows: *rows, Cols: *cols, Nodes: *nodes, Seed: *seed}.Generate()
	if err != nil {
		return err
	}
	// Generation can dominate for big -nodes; honour an interrupt that landed
	// during it instead of emitting a full (now unwanted) artifact.
	if err := ctx.Err(); err != nil {
		return err
	}

	switch *format {
	case "tsv":
		return g.WriteTSV(os.Stdout)
	case "dot":
		return g.WriteDOT(os.Stdout)
	case "stats":
		return printStats(g)
	default:
		return fmt.Errorf("unknown -format %q", *format)
	}
}

func printStats(g *topology.Graph) error {
	fmt.Println(g)
	fmt.Printf("connected: %t, annotated: %t\n", g.Connected(), g.Annotated())
	if g.Annotated() {
		if err := topology.ValleyFree(g); err != nil {
			fmt.Printf("relationships: INVALID (%v)\n", err)
		} else {
			fmt.Println("relationships: valley-free hierarchy OK")
		}
		peers, c2p := 0, 0
		for _, e := range g.Edges() {
			if g.Relationship(e.A, e.B) == topology.RelPeer {
				peers++
			} else {
				c2p++
			}
		}
		fmt.Printf("links: %d customer-provider, %d peer-peer\n", c2p, peers)
	}
	fmt.Printf("eccentricity(0): %d hops\n", g.Eccentricity(0))
	hist := g.DegreeHistogram()
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	fmt.Println("degree histogram:")
	for _, d := range degrees {
		fmt.Printf("  %3d: %d\n", d, hist[d])
	}
	return nil
}
