package graph

import (
	"math"
	"reflect"
	"testing"

	"pgti/internal/sparse"
)

// skewedDegreeGraph builds a fixture whose degree distribution is heavily
// skewed: `hubs` hub nodes each connected to a private fan of spokes plus a
// chain threading the hubs together, so hub degree dwarfs spoke degree. A
// count-balanced partition that splits the nodes evenly hands whichever
// block holds the most hubs a much larger share of the stored entries.
func skewedDegreeGraph(t *testing.T, hubs, spokesPerHub int) *Graph {
	t.Helper()
	n := hubs * (1 + spokesPerHub)
	var entries []sparse.Coord
	for h := 0; h < hubs; h++ {
		hub := h * (1 + spokesPerHub)
		for s := 1; s <= spokesPerHub; s++ {
			spoke := hub + s
			entries = append(entries,
				sparse.Coord{Row: hub, Col: spoke, Val: 1},
				sparse.Coord{Row: spoke, Col: hub, Val: 1})
		}
		if h+1 < hubs {
			next := (h + 1) * (1 + spokesPerHub)
			entries = append(entries,
				sparse.Coord{Row: hub, Col: next, Val: 1},
				sparse.Coord{Row: next, Col: hub, Val: 1})
		}
	}
	adj, err := sparse.FromCOO(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewFromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func spread(sizes []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range sizes {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	return hi - lo
}

func TestDegreeWeightsCountSymmetrizedDegree(t *testing.T) {
	g := skewedDegreeGraph(t, 2, 5)
	w := DegreeWeights(g)
	if len(w) != g.N {
		t.Fatalf("got %d weights for %d nodes", len(w), g.N)
	}
	// Hub 0: 5 spokes + 1 chain edge, symmetrized = 12. Spoke: 1 edge, = 2.
	if w[0] != 12 {
		t.Fatalf("hub weight %g, want 12", w[0])
	}
	if w[1] != 2 {
		t.Fatalf("spoke weight %g, want 2", w[1])
	}
}

// ringPlusPath joins a dense ring (each node linked to its ±1..±span
// neighbours, so degree 2*span) to a sparse path (degree 2) with a single
// bridge edge from the ring node opposite the BFS seed. Ring nodes carry
// several times the weight of path nodes, so a count-balanced split must
// drag path nodes into the ring's block while the weight-balanced split can
// cut exactly at the bridge.
func ringPlusPath(t *testing.T, ringN, span, pathN int) *Graph {
	t.Helper()
	var entries []sparse.Coord
	for u := 0; u < ringN; u++ {
		for d := 1; d <= span; d++ {
			entries = append(entries, sparse.Coord{Row: u, Col: (u + d) % ringN, Val: 1},
				sparse.Coord{Row: u, Col: (u - d + ringN) % ringN, Val: 1})
		}
	}
	bridge := ringN / 2
	entries = append(entries, sparse.Coord{Row: bridge, Col: ringN, Val: 1},
		sparse.Coord{Row: ringN, Col: bridge, Val: 1})
	for i := 0; i < pathN-1; i++ {
		entries = append(entries, sparse.Coord{Row: ringN + i, Col: ringN + i + 1, Val: 1},
			sparse.Coord{Row: ringN + i + 1, Col: ringN + i, Val: 1})
	}
	adj, err := sparse.FromCOO(ringN+pathN, ringN+pathN, entries)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewFromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPartitionWeightedBalancesSkewedDegrees is the satellite fixture: on a
// skewed-degree graph the degree-weighted partition must shrink the weighted
// load spread versus the count-balanced partition without paying for it in
// edge cut.
func TestPartitionWeightedBalancesSkewedDegrees(t *testing.T) {
	g := ringPlusPath(t, 20, 3, 60)
	weights := DegreeWeights(g)
	parts := 2

	plain, err := Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := PartitionWeighted(g, parts, weights)
	if err != nil {
		t.Fatal(err)
	}

	plainSpread := spread(WeightedSizes(plain, parts, weights))
	weightedSpread := spread(WeightedSizes(weighted, parts, weights))
	if weightedSpread >= plainSpread {
		t.Fatalf("weighted spread %g did not improve on count-balanced spread %g",
			weightedSpread, plainSpread)
	}
	if got, base := EdgeCut(g, weighted), EdgeCut(g, plain); got > base {
		t.Fatalf("weighted cut %d worse than count-balanced cut %d", got, base)
	}
	// Every part must still be non-empty.
	for p, s := range PartSizes(weighted, parts) {
		if s == 0 {
			t.Fatalf("part %d is empty", p)
		}
	}
}

func TestPartitionWeightedUniformMatchesBand(t *testing.T) {
	g := partitionTestGraph(t, 61)
	ones := make([]float64, g.N)
	for i := range ones {
		ones[i] = 1
	}
	for _, parts := range []int{1, 2, 3, 4, 7} {
		owner, err := PartitionWeighted(g, parts, ones)
		if err != nil {
			t.Fatal(err)
		}
		sizes := WeightedSizes(owner, parts, ones)
		mean := float64(g.N) / float64(parts)
		for p, s := range sizes {
			if s < mean-1 || s > mean+1 {
				t.Fatalf("parts=%d: part %d weight %g outside [%g, %g]",
					parts, p, s, mean-1, mean+1)
			}
		}
	}
}

func TestPartitionWeightedDeterministic(t *testing.T) {
	g := skewedDegreeGraph(t, 3, 10)
	w := DegreeWeights(g)
	a, err := PartitionWeighted(g, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionWeighted(g, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("weighted partition not deterministic")
	}
}

func TestPartitionWeightedErrors(t *testing.T) {
	g := partitionTestGraph(t, 5)
	ones := []float64{1, 1, 1, 1, 1}
	if _, err := PartitionWeighted(g, 0, ones); err == nil {
		t.Fatal("expected error for 0 parts")
	}
	if _, err := PartitionWeighted(g, 6, ones); err == nil {
		t.Fatal("expected error for more parts than nodes")
	}
	if _, err := PartitionWeighted(g, 2, ones[:3]); err == nil {
		t.Fatal("expected error for short weight vector")
	}
	if _, err := PartitionWeighted(g, 2, []float64{1, 1, 0, 1, 1}); err == nil {
		t.Fatal("expected error for non-positive weight")
	}
	// NaN and +Inf used to pass the w <= 0 guard and skew the partition.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := PartitionWeighted(g, 2, []float64{1, 1, 1, w, 1}); err == nil {
			t.Fatalf("expected error for weight %v", w)
		}
	}
}
