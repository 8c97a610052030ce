package dataset

import (
	"fmt"

	"pgti/internal/graph"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// DynamicDataset is a *dynamic graph with temporal signal* — the data
// structure the paper lists as future work (§7): node features evolve as in
// the static case, and the topology itself changes over time (road
// closures, seasonal links). The graph is piecewise-constant with period
// GraphPeriod: entry t uses Graphs[t / GraphPeriod].
type DynamicDataset struct {
	Meta        Meta
	Data        *tensor.Tensor
	Graphs      []*graph.Graph
	GraphPeriod int

	// supports caches the per-graph transition-matrix pairs.
	supports [][]*sparse.CSR
}

// GenerateDynamic synthesizes a dynamic dataset: the base sensor network is
// re-wired every graphPeriod entries by perturbing rewireFrac of the edge
// weights (modeling incidents/closures), and the signal is generated with
// the same domain process as Generate.
func GenerateDynamic(meta Meta, seed uint64, graphPeriod int, rewireFrac float64) (*DynamicDataset, error) {
	if graphPeriod < 1 {
		return nil, fmt.Errorf("dataset: graph period must be >= 1, got %d", graphPeriod)
	}
	if rewireFrac < 0 || rewireFrac > 1 {
		return nil, fmt.Errorf("dataset: rewire fraction %f out of [0,1]", rewireFrac)
	}
	base, err := Generate(meta, seed)
	if err != nil {
		return nil, err
	}
	numGraphs := (meta.Entries + graphPeriod - 1) / graphPeriod
	graphs := make([]*graph.Graph, numGraphs)
	graphs[0] = base.Graph
	rng := tensor.NewRNG(seed ^ 0xd15ea5e)
	for i := 1; i < numGraphs; i++ {
		graphs[i] = rewire(graphs[i-1], rng, rewireFrac)
	}
	d := &DynamicDataset{
		Meta:        meta,
		Data:        base.Data,
		Graphs:      graphs,
		GraphPeriod: graphPeriod,
	}
	d.supports = make([][]*sparse.CSR, numGraphs)
	return d, nil
}

// GraphAt returns the topology in effect at entry t.
func (d *DynamicDataset) GraphAt(t int) *graph.Graph {
	if t < 0 || t >= d.Meta.Entries {
		panic(fmt.Sprintf("dataset: entry %d out of range [0,%d)", t, d.Meta.Entries))
	}
	return d.Graphs[t/d.GraphPeriod]
}

// SupportsAt returns the cached forward/backward transition matrices for
// the topology at entry t.
func (d *DynamicDataset) SupportsAt(t int) []*sparse.CSR {
	idx := t / d.GraphPeriod
	if t < 0 || idx >= len(d.Graphs) {
		panic(fmt.Sprintf("dataset: entry %d out of range", t))
	}
	if d.supports[idx] == nil {
		fwd, bwd := d.Graphs[idx].TransitionMatrices()
		d.supports[idx] = []*sparse.CSR{fwd, bwd}
	}
	return d.supports[idx]
}

// SupportsForWindow returns the per-step support sets for a window starting
// at data row `start` with the given length — the input
// PGTDCRNN.ForwardDynamic consumes. This is index-batching extended to
// dynamic graphs: the graph sequence, like the signal, is reconstructed
// from indices at runtime rather than materialized per snapshot.
func (d *DynamicDataset) SupportsForWindow(start, length int) [][]*sparse.CSR {
	out := make([][]*sparse.CSR, length)
	for i := 0; i < length; i++ {
		out[i] = d.SupportsAt(start + i)
	}
	return out
}

// NumGraphBytes returns the total CSR footprint of all graph snapshots —
// the (small) price of topology dynamism.
func (d *DynamicDataset) NumGraphBytes() int64 {
	var total int64
	for _, g := range d.Graphs {
		total += g.Adj.NumBytes()
	}
	return total
}

// rewire perturbs a fraction of the graph's edge weights (keeping the
// structure sparse and weights in (0, 1]); self-loops are preserved.
func rewire(g *graph.Graph, rng *tensor.RNG, frac float64) *graph.Graph {
	adj := g.Adj.Clone()
	for i := range adj.Val {
		if rng.Float64() < frac {
			// Scale the edge: closures weaken it, recoveries restore it.
			adj.Val[i] *= 0.3 + 0.9*rng.Float64()
			if adj.Val[i] > 1 {
				adj.Val[i] = 1
			}
		}
	}
	out, err := graph.NewFromAdjacency(adj)
	if err != nil {
		// Clone of a valid square adjacency cannot fail.
		panic(err)
	}
	return out
}
