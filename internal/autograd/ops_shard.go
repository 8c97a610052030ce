package autograd

import (
	"fmt"

	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// HaloExchange is the split-phase communication endpoint a spatially-sharded
// SpMM uses to reach the rest of the graph. Implementations (internal/shard)
// move rows between the workers of one replica group; the op itself stays
// communication-agnostic so it can be exercised single-process in tests. The
// Start half ships the rows peers need without blocking, the Finish half
// collects this shard's expected payloads; how long the exchange took, and
// whether it hid under compute, is the implementation's to price.
//
// Every pair MUST run even when this shard needs no halo rows itself — peers
// may still need rows from this shard — and every member of the replica
// group issues matching pairs in the same order (the model graphs are
// identical, so this holds structurally). Pairs must not nest or interleave
// on one worker.
type HaloExchange interface {
	// NumHalo returns the halo row count this shard gathers.
	NumHalo() int
	// GatherStart ships the locally-owned rows of local [own, F] that peers
	// need (non-blocking).
	GatherStart(local *tensor.Tensor)
	// GatherFinish blocks for and returns the halo rows [NumHalo, F].
	GatherFinish() *tensor.Tensor
	// ScatterAddStart reverses the gather for gradients: it ships haloGrad
	// [NumHalo, F] back to the owners (non-blocking).
	ScatterAddStart(haloGrad *tensor.Tensor)
	// ScatterAddFinish blocks for and returns the peers' summed
	// contributions to this shard's own rows as [own, F] (zero where no peer
	// contributed).
	ScatterAddFinish() *tensor.Tensor
}

// ShardSpMM is the spatially-partitioned sparse-dense product over one
// worker's row block (columns [own | halo], see sparse.ShardCSR); x holds
// the worker's own feature rows [own, F]. The sparse operand is a constant
// (graph topology carries no gradient), exactly like SpMM.
//
// Both passes run interior-first: forward launches the halo exchange,
// multiplies the block's Interior rows (all columns in [own]) while the
// bytes are in flight, and finishes the Frontier rows once the halo lands;
// backward computes the transposed block's halo rows [own, own+halo) first,
// launches the reverse exchange, and multiplies the own rows under it.
// Because SpMM rows are independent and each row's accumulation order is
// unchanged, the results are bitwise those of SpMM(Local, Concat(x, halo))
// and its transposed gradient.
func ShardSpMM(block *sparse.ShardCSR, ex HaloExchange, x *Variable) *Variable {
	local := block.Local
	nOwn := local.RowsN
	if x.Value.Rank() != 2 || x.Value.Dim(0) != nOwn {
		panic(fmt.Sprintf("autograd: ShardSpMM expects [%d, F] features, got %v", nOwn, x.Value.Shape()))
	}
	if local.ColsN != nOwn+ex.NumHalo() {
		panic(fmt.Sprintf("autograd: ShardSpMM block has %d cols, want %d own + %d halo", local.ColsN, nOwn, ex.NumHalo()))
	}
	f := x.Value.Dim(1)
	xc := x.arena.Contiguous(x.Value)
	ex.GatherStart(xc) // always started: peers may need our rows
	out := x.arena.New(nOwn, f)
	local.SpMMRowsInto(block.Interior, xc, out) // interior columns all fall in [own]
	halo := ex.GatherFinish()
	ext := xc
	if ex.NumHalo() > 0 {
		ext = x.arena.Concat(0, xc, halo)
	}
	local.SpMMRowsInto(block.Frontier, ext, out)

	if v := untracked(out, x); v != nil {
		return v
	}
	return newOp("shardSpMM", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		// Mirrored: the transposed block's halo rows yield the halo
		// gradient, which ships while the own rows are multiplied.
		gc := x.arena.Contiguous(grad)
		lt := local.Transposed()
		gext := x.arena.New(local.ColsN, f)
		lt.SpMMRowRangeInto(nOwn, local.ColsN, gc, gext)
		ex.ScatterAddStart(gext.Slice(0, nOwn, local.ColsN).Contiguous())
		lt.SpMMRowRangeInto(0, nOwn, gc, gext)
		own := gext.Slice(0, 0, nOwn).Contiguous()
		remote := ex.ScatterAddFinish()
		dst[0] = tensor.BinaryInto(x.arena.Broadcast(own, remote), own, remote, add)
	}, x)
}
