package topology

import (
	"container/heap"
	"fmt"
	"sort"
)

// Partition assigns every node to one of k shards for parallel simulation,
// trying to keep shards balanced while cutting as few edges as possible. The
// algorithm is deterministic BFS region growing:
//
//  1. Pick k seeds: the highest-degree node first, then repeatedly the
//     highest-degree node maximizing its BFS distance to the seeds chosen so
//     far, so regions start spread out rather than adjacent.
//  2. Grow regions round-robin. Each shard, on its turn, claims the
//     unassigned frontier node with the most already-claimed neighbors in
//     that shard (ties broken by lowest id) — greedily internalizing edges.
//     A shard at the balanced size ceil(n/k) stops claiming, which bounds
//     imbalance at one node.
//  3. Nodes unreachable from any seed (disconnected components) are swept up
//     round-robin by ascending id.
//
// The result is not a min-cut — true balanced min-cut is NP-hard — but on
// mesh and internet-like graphs it produces contiguous regions whose cut
// fraction PartitionStats reports, so bad partitions are diagnosable.
//
// k must be in [1, NumNodes]. The returned slice maps node id to shard; every
// shard owns at least one node.
func Partition(g *Graph, k int) ([]int32, error) {
	n := g.NumNodes()
	if k < 1 || k > n {
		return nil, fmt.Errorf("topology: cannot partition %d nodes into %d shards", n, k)
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	if k == 1 {
		for i := range assign {
			assign[i] = 0
		}
		return assign, nil
	}

	seeds := pickSeeds(g, k)
	limit := (n + k - 1) / k

	// score[s][v] counts v's neighbors already assigned to shard s, kept up
	// to date as nodes join: +1 for every unassigned neighbor of the joiner.
	// Each bump pushes a fresh (score, id) entry on s's heap; entries whose
	// node has since been claimed, or whose score is no longer current, are
	// discarded when they surface.
	size := make([]int, k)
	scores := make([]int32, k*n)
	score := make([][]int32, k)
	frontier := make([]frontierHeap, k)
	join := func(v NodeID, s int) {
		assign[v] = int32(s)
		size[s]++
		for _, w := range g.Neighbors(v) {
			if assign[w] < 0 {
				score[s][w]++
				heap.Push(&frontier[s], candidate{score[s][w], w})
			}
		}
	}
	for s, seed := range seeds {
		score[s] = scores[s*n : (s+1)*n]
		join(seed, s)
	}

	remaining := n - k
	for remaining > 0 {
		progress := false
		for s := 0; s < k && remaining > 0; s++ {
			if size[s] >= limit {
				continue
			}
			for len(frontier[s]) > 0 {
				c := heap.Pop(&frontier[s]).(candidate)
				if assign[c.id] >= 0 || c.score != score[s][c.id] {
					continue
				}
				join(c.id, s)
				remaining--
				progress = true
				break
			}
		}
		if !progress {
			break
		}
	}
	// Disconnected leftovers (or nodes walled off by full shards): spread
	// them round-robin over the least-loaded shards by ascending id.
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
	return assign, nil
}

// candidate is a frontier node with the score it had when pushed.
type candidate struct {
	score int32
	id    NodeID
}

// frontierHeap is a container/heap of candidates ordered by (score
// descending, id ascending): the claim order of Partition's step 2.
type frontierHeap []candidate

func (h frontierHeap) Len() int { return len(h) }
func (h frontierHeap) Less(i, j int) bool {
	return h[i].score > h[j].score || (h[i].score == h[j].score && h[i].id < h[j].id)
}
func (h frontierHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x any)   { *h = append(*h, x.(candidate)) }
func (h *frontierHeap) Pop() any {
	q := *h
	c := q[len(q)-1]
	*h = q[:len(q)-1]
	return c
}

// pickSeeds returns k distinct seed nodes: highest degree first, then
// repeatedly the node maximizing min BFS distance to the existing seeds, with
// degree (then lowest id) breaking ties — far apart but well connected.
func pickSeeds(g *Graph, k int) []NodeID {
	n := g.NumNodes()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	seeds := []NodeID{ids[0]}
	minDist := g.BFS(ids[0])
	for len(seeds) < k {
		best := NodeID(-1)
		bestDist, bestDeg := -1, -1
		for _, v := range ids {
			if contains(seeds, v) {
				continue
			}
			dist, ok := minDist[v]
			if !ok {
				// Unreachable from every seed: infinitely far.
				dist = n
			}
			deg := g.Degree(v)
			if dist > bestDist || (dist == bestDist && (deg > bestDeg || (deg == bestDeg && v < best))) {
				best, bestDist, bestDeg = v, dist, deg
			}
		}
		seeds = append(seeds, best)
		for v, d := range g.BFS(best) {
			if cur, ok := minDist[v]; !ok || d < cur {
				minDist[v] = d
			}
		}
	}
	return seeds
}

func contains(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// PartitionStats quantifies a partition's quality for the `-v` diagnostics
// line: a high cut fraction or lopsided shard sizes explain a slow sharded
// run better than any profiler.
type PartitionStats struct {
	// Shards is the number of shards.
	Shards int
	// CutEdges is the number of edges whose endpoints live on different
	// shards; every message on them crosses a barrier.
	CutEdges int
	// TotalEdges is the graph's edge count.
	TotalEdges int
	// Sizes is the node count per shard.
	Sizes []int
}

// CutFraction returns CutEdges/TotalEdges (0 for edgeless graphs).
func (s PartitionStats) CutFraction() float64 {
	if s.TotalEdges == 0 {
		return 0
	}
	return float64(s.CutEdges) / float64(s.TotalEdges)
}

// Imbalance returns max shard size over the balanced size n/k (1.0 = perfect).
func (s PartitionStats) Imbalance() float64 {
	n := 0
	max := 0
	for _, sz := range s.Sizes {
		n += sz
		if sz > max {
			max = sz
		}
	}
	if n == 0 || len(s.Sizes) == 0 {
		return 1
	}
	return float64(max) * float64(len(s.Sizes)) / float64(n)
}

func (s PartitionStats) String() string {
	return fmt.Sprintf("shards=%d cut=%d/%d (%.1f%%) sizes=%v imbalance=%.2f",
		s.Shards, s.CutEdges, s.TotalEdges, 100*s.CutFraction(), s.Sizes, s.Imbalance())
}

// AnalyzePartition computes quality statistics for a node→shard assignment.
func AnalyzePartition(g *Graph, assign []int32) PartitionStats {
	shards := 0
	for _, s := range assign {
		if int(s)+1 > shards {
			shards = int(s) + 1
		}
	}
	st := PartitionStats{
		Shards:     shards,
		TotalEdges: g.NumEdges(),
		Sizes:      make([]int, shards),
	}
	for _, s := range assign {
		st.Sizes[s]++
	}
	for _, e := range g.Edges() {
		if assign[e.A] != assign[e.B] {
			st.CutEdges++
		}
	}
	return st
}
