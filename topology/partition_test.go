package topology

import (
	"fmt"
	"slices"
	"testing"
)

// partitionOracle is Partition's region growing as first written: on every
// turn rescan the shard's whole frontier and recount each candidate's
// neighbors. Kept as the reference the heap-based loop must reproduce node
// for node — the partition decides which router runs on which kernel, and
// with it every sharded benchmark number and epoch count on record.
func partitionOracle(g *Graph, k int) []int32 {
	n := g.NumNodes()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	seeds := pickSeeds(g, k)
	limit := (n + k - 1) / k

	size := make([]int, k)
	frontier := make([]map[NodeID]bool, k)
	for s, seed := range seeds {
		assign[seed] = int32(s)
		size[s]++
		frontier[s] = make(map[NodeID]bool)
		for _, w := range g.Neighbors(seed) {
			if assign[w] < 0 {
				frontier[s][w] = true
			}
		}
	}

	remaining := n - k
	for remaining > 0 {
		progress := false
		for s := 0; s < k && remaining > 0; s++ {
			if size[s] >= limit {
				continue
			}
			best := NodeID(-1)
			bestScore := -1
			for v := range frontier[s] {
				if assign[v] >= 0 {
					delete(frontier[s], v)
					continue
				}
				score := 0
				for _, w := range g.Neighbors(v) {
					if assign[w] == int32(s) {
						score++
					}
				}
				if score > bestScore || (score == bestScore && v < best) {
					best, bestScore = v, score
				}
			}
			if best < 0 {
				continue
			}
			assign[best] = int32(s)
			size[s]++
			remaining--
			progress = true
			delete(frontier[s], best)
			for _, w := range g.Neighbors(best) {
				if assign[w] < 0 {
					frontier[s][w] = true
				}
			}
		}
		if !progress {
			break
		}
	}
	for v := 0; v < n; v++ {
		if assign[v] >= 0 {
			continue
		}
		s := 0
		for t := 1; t < k; t++ {
			if size[t] < size[s] {
				s = t
			}
		}
		assign[v] = int32(s)
		size[s]++
	}
	return assign
}

func TestPartitionMatchesOracle(t *testing.T) {
	graphs := map[string]func() (*Graph, error){
		"torus-10x10":   func() (*Graph, error) { return Torus(10, 10) },
		"internet-208":  func() (*Graph, error) { return InternetDerived(DefaultInternetConfig(208, 1)) },
		"internet-2000": func() (*Graph, error) { return InternetDerived(DefaultInternetConfig(2000, 1)) },
		// Three components: at k=2 the third holds no seed, so the leftover
		// sweep runs.
		"three-rings": func() (*Graph, error) {
			g := New("three-rings", 12)
			for i := 0; i < 12; i++ {
				if err := g.AddEdge(NodeID(i), NodeID(i/4*4+(i+1)%4)); err != nil {
					return nil, err
				}
			}
			return g, nil
		},
	}
	for name, build := range graphs {
		g, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				got, err := Partition(g, k)
				if err != nil {
					t.Fatal(err)
				}
				want := partitionOracle(g, k)
				if !slices.Equal(got, want) {
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("node %d assigned to shard %d, oracle says %d", v, got[v], want[v])
						}
					}
				}
			})
		}
	}
}
