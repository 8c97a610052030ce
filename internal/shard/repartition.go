package shard

import (
	"fmt"

	"pgti/internal/graph"
	"pgti/internal/sparse"
)

// Elastic chunk-based repartitioning (after DGC): when the per-shard step
// compute recorded over an epoch skews past a threshold, a fixed-size chunk
// of consecutive owned nodes migrates from the heaviest shard to the
// lightest one and the support row blocks plus halo routing rebuild via
// ReplanFrom — no full partition recomputation, no training restart. The
// decision is a pure function of the agreed load vector and the current
// plan, so every rank of the grid derives the identical move without
// coordination.

// Repartition configures elastic chunk-based repartitioning at epoch
// boundaries of a hybrid run. Zero value disables it.
type Repartition struct {
	// ChunkSize is the number of consecutive owned nodes that migrate per
	// repartition (clamped so the source shard keeps at least one node).
	ChunkSize int
	// Threshold triggers a move when the heaviest shard's epoch compute
	// exceeds Threshold times the lightest shard's (must be > 1).
	Threshold float64
	// MaxMoves caps the number of repartitions per run; 0 means unlimited.
	MaxMoves int
	// Measured feeds the epoch-boundary load vector from the measured
	// per-shard step compute — the straggler-scaled charge the virtual clock
	// actually advanced by, the same quantity the trace compute spans record
	// — instead of the structural charge. The structural vector prices each
	// shard's node share and is blind to an injected Straggler fault; the
	// measured vector sees the inflation and triggers the migration.
	Measured bool
}

// Enabled reports whether the configuration can trigger moves.
func (r Repartition) Enabled() bool { return r.ChunkSize > 0 && r.Threshold > 1 }

// Validate rejects configurations that could never behave sensibly.
func (r Repartition) Validate() error {
	if r.ChunkSize < 0 {
		return fmt.Errorf("shard: repartition chunk size must be >= 0, got %d", r.ChunkSize)
	}
	if r.ChunkSize > 0 && !(r.Threshold > 1) { // also rejects NaN
		return fmt.Errorf("shard: repartition threshold must be > 1, got %g", r.Threshold)
	}
	if r.MaxMoves < 0 {
		return fmt.Errorf("shard: repartition max moves must be >= 0, got %d", r.MaxMoves)
	}
	return nil
}

// RepartitionEvent describes one applied chunk migration.
type RepartitionEvent struct {
	// Epoch is the completed epoch whose load vector triggered the move.
	Epoch int
	// From and To are the source (heaviest) and destination (lightest)
	// shards.
	From, To int
	// Nodes lists the migrated global node ids, ascending.
	Nodes []int
	// Loads is the agreed per-shard load vector (seconds of step compute)
	// behind the decision.
	Loads []float64
	// EdgeCut is the rebuilt plan's edge cut.
	EdgeCut int
}

// chunkMove is the deterministic repartition decision: given the agreed
// per-shard load vector, pick source (max load, ties to the lower index),
// destination (min load, ties to the lower index), and the ChunkSize-long
// run of consecutive source-owned nodes with the highest symmetrized
// adjacency affinity to the destination shard (ties to the lowest start).
// ok is false when the skew is under threshold or no legal chunk exists.
func chunkMove(g *graph.Graph, plan *Plan, loads []float64, r Repartition) (src, dst int, nodes []int, ok bool) {
	if len(loads) != plan.Shards || plan.Shards < 2 {
		return 0, 0, nil, false
	}
	src, dst = 0, 0
	for p := 1; p < plan.Shards; p++ {
		if loads[p] > loads[src] {
			src = p
		}
		if loads[p] < loads[dst] {
			dst = p
		}
	}
	if src == dst || loads[src] < r.Threshold*loads[dst] {
		return 0, 0, nil, false
	}
	own := plan.Parts[src].Own
	size := r.ChunkSize
	if size > len(own)-1 {
		size = len(own) - 1
	}
	if size < 1 {
		return 0, 0, nil, false
	}
	tr := g.Adj.Transpose()
	// Per-node affinity to dst (stored out- plus in-entries), then the best
	// consecutive window by sliding sum.
	aff := make([]int, len(own))
	for i, u := range own {
		for k := g.Adj.RowPtr[u]; k < g.Adj.RowPtr[u+1]; k++ {
			if v := g.Adj.ColIdx[k]; v != u && plan.Owner[v] == dst {
				aff[i]++
			}
		}
		for k := tr.RowPtr[u]; k < tr.RowPtr[u+1]; k++ {
			if v := tr.ColIdx[k]; v != u && plan.Owner[v] == dst {
				aff[i]++
			}
		}
	}
	sum := 0
	for i := 0; i < size; i++ {
		sum += aff[i]
	}
	best, bestSum := 0, sum
	for start := 1; start+size <= len(own); start++ {
		sum += aff[start+size-1] - aff[start-1]
		if sum > bestSum {
			best, bestSum = start, sum
		}
	}
	nodes = make([]int, size)
	copy(nodes, own[best:best+size])
	return src, dst, nodes, true
}

// applyMove migrates the chosen nodes and rebuilds the plan. The input plan
// is not mutated; every rank derives the identical new plan.
func applyMove(g *graph.Graph, supports []*sparse.CSR, plan *Plan, dst int, nodes []int) (*Plan, error) {
	owner := make([]int, len(plan.Owner))
	copy(owner, plan.Owner)
	for _, u := range nodes {
		owner[u] = dst
	}
	return ReplanFrom(g, supports, plan.Shards, owner)
}
