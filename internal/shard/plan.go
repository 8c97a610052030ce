// Package shard is the trainer: the repo's one step loop (Train) over a
// Shards x Replicas process grid whose axes degenerate at 1. The shard axis
// is spatial graph parallelism: the sensor graph is partitioned into node
// blocks, every worker holds only its block's rows of the support matrices
// and its block's slice of the node features, and each diffusion hop gathers
// just the boundary ("halo") rows from peer shards — so the node dimension N
// scales beyond one worker's memory, the axis index-batching alone cannot
// shrink. The replica axis is data parallelism over internal/ddp's sync
// machinery. A 1 x R grid is plain DDP, an S x 1 grid pure spatial
// sharding, and 1 x 1 a single GPU (what internal/core's single-GPU
// strategies train on).
//
// Each rank runs one worker (train.go) whose step is a fixed sequence of
// phases: poll, fetch, forward/backward, compute charge, overlap charge,
// gradient schedule, step end. The gradient schedule (schedule.go) is
// chosen once per worker: flat (one blocking exchange after backward),
// bucketed (bucket collectives launched mid-backward onto the step's
// overlap timeline) or stale (the bucketed exchange applied up to Staleness
// steps late). grid.go holds the rank layout and its inverse after a loss.
package shard

import (
	"fmt"
	"sort"

	"pgti/internal/graph"
	"pgti/internal/sparse"
)

// Spatial is the spatial-parallelism knob surfaced through the run configs:
// Shards <= 1 keeps the graph whole, Shards = P splits the node set into P
// blocks, multiplying the worker grid by P.
type Spatial struct {
	// Shards is the number of node blocks the graph is partitioned into.
	Shards int
}

// Enabled reports whether spatial sharding is active.
func (s Spatial) Enabled() bool { return s.Shards > 1 }

// ExchangePlan is one shard's precomputed halo routing for one support
// matrix: which locally-owned rows each peer needs (SendTo) and where each
// peer's rows land in the local halo block (RecvPos). Both sides list rows
// in ascending global-id order, so sender and receiver agree on the payload
// layout without shipping indices.
type ExchangePlan struct {
	NumOwn, NumHalo int
	// SendTo[q] holds the local own-row indices shipped to shard q.
	SendTo [][]int
	// RecvPos[q] holds the halo positions filled by shard q's payload.
	RecvPos [][]int
}

// ShardPlan is everything one shard needs: its node block, the re-indexed
// support row blocks, and one exchange plan per support.
type ShardPlan struct {
	Shard int
	// Own lists the shard's global node ids, ascending (the row order of
	// every support block and of the worker's feature slices).
	Own       []int
	Supports  []*sparse.ShardCSR
	Exchanges []*ExchangePlan
}

// Plan is the full deterministic partition: every worker derives the
// identical plan from the shared graph, so no coordination is needed.
type Plan struct {
	Shards  int
	GlobalN int
	// Owner maps node -> shard.
	Owner []int
	// EdgeCut counts support entries crossing shards (halo-traffic proxy).
	EdgeCut int
	Parts   []*ShardPlan
}

// MaxOwn returns the largest owned-node count over the shards.
func (p *Plan) MaxOwn() int {
	m := 0
	for _, sp := range p.Parts {
		if len(sp.Own) > m {
			m = len(sp.Own)
		}
	}
	return m
}

// MaxHalo returns the largest per-support halo count over the shards.
func (p *Plan) MaxHalo() int {
	m := 0
	for _, sp := range p.Parts {
		for _, s := range sp.Supports {
			if s.NumHalo() > m {
				m = s.NumHalo()
			}
		}
	}
	return m
}

// BuildPlan partitions g into `shards` blocks (greedy BFS growth + locality
// refinement) and splits every support matrix into per-shard row blocks with
// halo routing. The supports must share g's node count.
func BuildPlan(g *graph.Graph, supports []*sparse.CSR, shards int) (*Plan, error) {
	owner, err := graph.Partition(g, shards)
	if err != nil {
		return nil, err
	}
	return ReplanFrom(g, supports, shards, owner)
}

// ReplanFrom rebuilds a full Plan from an explicit node->shard assignment —
// BuildPlan minus the partitioning step. The elastic repartitioner uses it
// to re-split the support row blocks after migrating a chunk of nodes
// without recomputing the partition from scratch. owner must assign every
// node to a shard in [0, shards) and leave no shard empty.
func ReplanFrom(g *graph.Graph, supports []*sparse.CSR, shards int, owner []int) (*Plan, error) {
	if len(supports) == 0 {
		return nil, fmt.Errorf("shard: plan needs at least one support matrix")
	}
	if len(owner) != g.N {
		return nil, fmt.Errorf("shard: owner assigns %d nodes, graph has %d", len(owner), g.N)
	}
	counts := make([]int, shards)
	for node, p := range owner {
		if p < 0 || p >= shards {
			return nil, fmt.Errorf("shard: node %d assigned to shard %d of %d", node, p, shards)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 {
			return nil, fmt.Errorf("shard: shard %d owns no nodes", p)
		}
	}
	plan := &Plan{Shards: shards, GlobalN: g.N, Owner: owner, EdgeCut: graph.EdgeCut(g, owner)}
	plan.Parts = make([]*ShardPlan, shards)
	for p := 0; p < shards; p++ {
		plan.Parts[p] = &ShardPlan{Shard: p}
	}
	// Own is a partition-level property: node ids in ascending order per
	// shard, the row order every support block below shares.
	for node, p := range owner {
		plan.Parts[p].Own = append(plan.Parts[p].Own, node)
	}
	for si, s := range supports {
		if s.RowsN != g.N || s.ColsN != g.N {
			return nil, fmt.Errorf("shard: support %d is %dx%d, graph has %d nodes", si, s.RowsN, s.ColsN, g.N)
		}
		blocks, err := sparse.SplitCSR(s, owner, shards)
		if err != nil {
			return nil, err
		}
		for p := 0; p < shards; p++ {
			if len(blocks[p].Own) != len(plan.Parts[p].Own) {
				return nil, fmt.Errorf("shard: support %d shard %d owns %d rows, partition has %d", si, p, len(blocks[p].Own), len(plan.Parts[p].Own))
			}
			plan.Parts[p].Supports = append(plan.Parts[p].Supports, blocks[p])
		}
		for p, ex := range buildExchanges(blocks, owner, shards) {
			plan.Parts[p].Exchanges = append(plan.Parts[p].Exchanges, ex)
		}
	}
	return plan, nil
}

// buildExchanges derives the halo routing for one support's row blocks.
func buildExchanges(blocks []*sparse.ShardCSR, owner []int, shards int) []*ExchangePlan {
	out := make([]*ExchangePlan, shards)
	for p := 0; p < shards; p++ {
		out[p] = &ExchangePlan{
			NumOwn:  blocks[p].NumOwn(),
			NumHalo: blocks[p].NumHalo(),
			SendTo:  make([][]int, shards),
			RecvPos: make([][]int, shards),
		}
	}
	for q := 0; q < shards; q++ {
		for pos, node := range blocks[q].Halo {
			src := owner[node]
			// blocks[q].Halo ascends in global id, so both lists stay sorted
			// and sender/receiver payload orders agree.
			out[src].SendTo[q] = append(out[src].SendTo[q], localRowOf(blocks[src].Own, node))
			out[q].RecvPos[src] = append(out[q].RecvPos[src], pos)
		}
	}
	return out
}

// localRowOf returns node's index in the sorted own list.
func localRowOf(own []int, node int) int {
	i := sort.SearchInts(own, node)
	if i >= len(own) || own[i] != node {
		panic(fmt.Sprintf("shard: node %d not owned by its assigned shard", node))
	}
	return i
}

// WholeGraph is the one-part plan of an unsharded grid (Shards == 1): the
// part owns every node and routes no halo, so it carries no support blocks —
// the trainer propagates over the full CSR supports directly.
func WholeGraph(n int) *Plan {
	own := make([]int, n)
	for i := range own {
		own[i] = i
	}
	return &Plan{Shards: 1, GlobalN: n, Owner: make([]int, n), Parts: []*ShardPlan{{Own: own}}}
}
