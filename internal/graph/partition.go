package graph

import (
	"fmt"
)

// Spatial graph partitioning for sharded (spatial-parallel) training: nodes
// are divided into balanced blocks, each owned by one worker, and only
// boundary ("halo") features cross workers per diffusion hop. The
// partitioner is deterministic — every worker derives the identical
// assignment from the shared graph — and optimizes the edge cut, which is
// proportional to halo traffic.

// Partition assigns every node of g to one of `parts` balanced blocks using
// greedy BFS growth followed by a boundary locality refinement pass. The
// returned slice maps node -> part in [0, parts). Deterministic for a given
// graph: block seeds, BFS frontier order, and refinement sweeps all follow
// ascending node ids.
func Partition(g *Graph, parts int) ([]int, error) {
	if parts < 1 {
		return nil, fmt.Errorf("graph: Partition needs parts >= 1, got %d", parts)
	}
	if parts > g.N {
		return nil, fmt.Errorf("graph: cannot split %d nodes into %d parts", g.N, parts)
	}
	owner := partitionBFS(g, parts)
	refineLocality(g, owner, parts, 2)
	return owner, nil
}

// partitionBFS grows the blocks one at a time: each block starts from the
// lowest-numbered unassigned node and absorbs unassigned neighbours in BFS
// order (CSR adjacency order within a node) until it reaches its balanced
// target size, so blocks follow the graph's locality instead of raw node-id
// ranges.
func partitionBFS(g *Graph, parts int) []int {
	owner := make([]int, g.N)
	for i := range owner {
		owner[i] = -1
	}
	assigned := 0
	next := 0 // lowest candidate seed
	for p := 0; p < parts; p++ {
		// Balanced target: remaining nodes over remaining parts.
		target := (g.N - assigned + (parts - p) - 1) / (parts - p)
		for next < g.N && owner[next] != -1 {
			next++
		}
		if next >= g.N {
			break
		}
		queue := []int{next}
		owner[next] = p
		size := 1
		for len(queue) > 0 && size < target {
			u := queue[0]
			queue = queue[1:]
			for k := g.Adj.RowPtr[u]; k < g.Adj.RowPtr[u+1] && size < target; k++ {
				v := g.Adj.ColIdx[k]
				if owner[v] == -1 {
					owner[v] = p
					size++
					queue = append(queue, v)
				}
			}
		}
		// Frontier exhausted before the target (disconnected component):
		// top up from the lowest unassigned ids.
		for cand := next; size < target && cand < g.N; cand++ {
			if owner[cand] == -1 {
				owner[cand] = p
				size++
				queue = append(queue, cand)
				// Resume BFS from the new seed to keep locality.
				for len(queue) > 0 && size < target {
					u := queue[0]
					queue = queue[1:]
					for k := g.Adj.RowPtr[u]; k < g.Adj.RowPtr[u+1] && size < target; k++ {
						v := g.Adj.ColIdx[k]
						if owner[v] == -1 {
							owner[v] = p
							size++
							queue = append(queue, v)
						}
					}
				}
			}
		}
		assigned += size
	}
	// Safety net: anything still unassigned joins the last part.
	for i := range owner {
		if owner[i] == -1 {
			owner[i] = parts - 1
		}
	}
	return owner
}

// refineLocality sweeps the boundary nodes `passes` times in ascending node
// order, moving a node to the neighbouring part holding most of its edges
// when that strictly reduces the edge cut and keeps every block within the
// balanced size band [floor(N/parts), ceil(N/parts)]. Uses the symmetrized
// neighbourhood (out- plus in-edges) so directed supports still localize.
func refineLocality(g *Graph, owner []int, parts, passes int) {
	if parts < 2 {
		return
	}
	sizes := make([]int, parts)
	for _, p := range owner {
		sizes[p]++
	}
	minSize := g.N / parts
	maxSize := (g.N + parts - 1) / parts
	tr := g.Adj.Transpose()
	affinity := make([]int, parts)
	for pass := 0; pass < passes; pass++ {
		moved := false
		for u := 0; u < g.N; u++ {
			for i := range affinity {
				affinity[i] = 0
			}
			for k := g.Adj.RowPtr[u]; k < g.Adj.RowPtr[u+1]; k++ {
				if v := g.Adj.ColIdx[k]; v != u {
					affinity[owner[v]]++
				}
			}
			for k := tr.RowPtr[u]; k < tr.RowPtr[u+1]; k++ {
				if v := tr.ColIdx[k]; v != u {
					affinity[owner[v]]++
				}
			}
			cur := owner[u]
			best, bestAff := cur, affinity[cur]
			for p := 0; p < parts; p++ {
				if p != cur && affinity[p] > bestAff && sizes[p] < maxSize {
					best, bestAff = p, affinity[p]
				}
			}
			if best != cur && sizes[cur] > minSize {
				owner[u] = best
				sizes[cur]--
				sizes[best]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// EdgeCut counts the stored adjacency entries whose endpoints live in
// different parts — the structural proxy for halo traffic.
func EdgeCut(g *Graph, owner []int) int {
	cut := 0
	for u := 0; u < g.N; u++ {
		for k := g.Adj.RowPtr[u]; k < g.Adj.RowPtr[u+1]; k++ {
			if owner[u] != owner[g.Adj.ColIdx[k]] {
				cut++
			}
		}
	}
	return cut
}
