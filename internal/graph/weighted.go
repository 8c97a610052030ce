package graph

import (
	"fmt"
	"math"
)

// Degree-weighted partition balancing: blocks are balanced by total node
// *weight* instead of node count. With weights proportional to node degree,
// block weight tracks the per-shard SpMM work (stored entries processed per
// step), so skewed-degree graphs — a few hub sensors with many incident
// edges — no longer hand one shard a disproportionate compute bill. The
// elastic repartitioner uses the same weights as its load proxy.

// PartitionWeighted assigns every node of g to one of `parts` blocks
// balanced by total node weight, using the same greedy BFS growth plus
// boundary locality refinement as Partition. Deterministic for a given graph
// and weight vector: block seeds, BFS frontier order, and refinement sweeps
// all follow ascending node ids. Weights must be finite and positive, and
// len(weights) must equal g.N; Partition is the special case of all-ones
// weights.
func PartitionWeighted(g *Graph, parts int, weights []float64) ([]int, error) {
	if parts < 1 {
		return nil, fmt.Errorf("graph: PartitionWeighted needs parts >= 1, got %d", parts)
	}
	if parts > g.N {
		return nil, fmt.Errorf("graph: cannot split %d nodes into %d parts", g.N, parts)
	}
	if len(weights) != g.N {
		return nil, fmt.Errorf("graph: PartitionWeighted needs %d weights, got %d", g.N, len(weights))
	}
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("graph: PartitionWeighted weight[%d] = %g, want finite and > 0", i, w)
		}
	}
	owner := partitionBFSWeighted(g, parts, weights)
	refineLocalityWeighted(g, owner, parts, 2, weights)
	return owner, nil
}

// partitionBFSWeighted mirrors partitionBFS with weight-based targets: each
// block absorbs unassigned neighbours in BFS order until its accumulated
// weight reaches the balanced target (remaining weight over remaining
// parts). A block always takes at least one node so no part ends up empty.
func partitionBFSWeighted(g *Graph, parts int, weights []float64) []int {
	owner := make([]int, g.N)
	total := 0.0
	for i := range owner {
		owner[i] = -1
		total += weights[i]
	}
	assignedW := 0.0
	assignedN := 0
	next := 0 // lowest candidate seed
	for p := 0; p < parts; p++ {
		// Balanced target: remaining weight over remaining parts, but never
		// demand more nodes than remain for the later parts.
		target := (total - assignedW) / float64(parts-p)
		maxNodes := g.N - assignedN - (parts - p - 1)
		for next < g.N && owner[next] != -1 {
			next++
		}
		if next >= g.N {
			break
		}
		queue := []int{next}
		owner[next] = p
		size := 1
		weight := weights[next]
		for len(queue) > 0 && weight < target && size < maxNodes {
			u := queue[0]
			queue = queue[1:]
			for k := g.Adj.RowPtr[u]; k < g.Adj.RowPtr[u+1] && weight < target && size < maxNodes; k++ {
				v := g.Adj.ColIdx[k]
				if owner[v] == -1 {
					owner[v] = p
					size++
					weight += weights[v]
					queue = append(queue, v)
				}
			}
		}
		// Frontier exhausted before the target (disconnected component):
		// top up from the lowest unassigned ids, resuming BFS per seed.
		for cand := next; weight < target && size < maxNodes && cand < g.N; cand++ {
			if owner[cand] == -1 {
				owner[cand] = p
				size++
				weight += weights[cand]
				queue = append(queue, cand)
				for len(queue) > 0 && weight < target && size < maxNodes {
					u := queue[0]
					queue = queue[1:]
					for k := g.Adj.RowPtr[u]; k < g.Adj.RowPtr[u+1] && weight < target && size < maxNodes; k++ {
						v := g.Adj.ColIdx[k]
						if owner[v] == -1 {
							owner[v] = p
							size++
							weight += weights[v]
							queue = append(queue, v)
						}
					}
				}
			}
		}
		assignedW += weight
		assignedN += size
	}
	// Safety net: anything still unassigned joins the last part.
	for i := range owner {
		if owner[i] == -1 {
			owner[i] = parts - 1
		}
	}
	return owner
}

// refineLocalityWeighted sweeps the boundary nodes like refineLocality but
// holds every block inside a weight band around the balanced mean instead of
// a node-count band. The band half-width is the maximum node weight, so any
// single node can still move between near-balanced blocks, and a block never
// drops below one node.
func refineLocalityWeighted(g *Graph, owner []int, parts, passes int, weights []float64) {
	if parts < 2 {
		return
	}
	blockW := make([]float64, parts)
	blockN := make([]int, parts)
	total := 0.0
	maxW := 0.0
	for u, p := range owner {
		blockW[p] += weights[u]
		blockN[p]++
		total += weights[u]
		if weights[u] > maxW {
			maxW = weights[u]
		}
	}
	mean := total / float64(parts)
	loBand := mean - maxW
	hiBand := mean + maxW
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
				if p != cur && affinity[p] > bestAff && blockW[p]+weights[u] <= hiBand {
					best, bestAff = p, affinity[p]
				}
			}
			if best != cur && blockW[cur]-weights[u] >= loBand && blockN[cur] > 1 {
				owner[u] = best
				blockW[cur] -= weights[u]
				blockW[best] += weights[u]
				blockN[cur]--
				blockN[best]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}
