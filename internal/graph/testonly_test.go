package graph

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// PartSizes returns the node count per part.
func PartSizes(owner []int, parts int) []int {
	sizes := make([]int, parts)
	for _, p := range owner {
		sizes[p]++
	}
	return sizes
}

// DegreeWeights returns per-node weights proportional to the symmetrized
// degree (stored out- plus in-entries), the structural proxy for the SpMM
// work a node contributes to its shard. Every weight is at least 1 so
// isolated nodes still occupy space in a block.
func DegreeWeights(g *Graph) []float64 {
	w := make([]float64, g.N)
	for u := 0; u < g.N; u++ {
		w[u] += float64(g.Adj.RowPtr[u+1] - g.Adj.RowPtr[u])
	}
	for k := 0; k < g.Adj.NNZ(); k++ {
		w[g.Adj.ColIdx[k]]++
	}
	for u := range w {
		if w[u] < 1 {
			w[u] = 1
		}
	}
	return w
}

// WeightedSizes returns the total node weight per part — the weighted
// analogue of PartSizes.
func WeightedSizes(owner []int, parts int, weights []float64) []float64 {
	sizes := make([]float64, parts)
	for u, p := range owner {
		sizes[p] += weights[u]
	}
	return sizes
}
