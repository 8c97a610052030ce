package autograd

import (
	"fmt"

	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// HaloExchange is the communication endpoint a spatially-sharded SpMM uses
// to reach the rest of the graph. Implementations (internal/shard) move rows
// between the workers of one replica group; the op itself stays
// communication-agnostic so it can be exercised single-process in tests.
//
// Both methods MUST perform their exchange even when this shard needs no
// halo rows itself — peers may still need rows from this shard, and every
// member of the replica group issues matching calls in the same order.
type HaloExchange interface {
	// NumHalo returns the halo row count this shard gathers.
	NumHalo() int
	// Gather exchanges feature rows: it ships the locally-owned rows peers
	// need and returns the gathered halo rows [NumHalo, F] for local [own, F].
	Gather(local *tensor.Tensor) *tensor.Tensor
	// ScatterAdd reverses Gather for gradients: it ships haloGrad
	// [NumHalo, F] back to the owners and returns the peers' contributions
	// to this shard's own rows as [own, F] (zero where no peer contributed).
	ScatterAdd(haloGrad *tensor.Tensor) *tensor.Tensor
}

// AsyncHaloExchange is the split-phase extension of HaloExchange that
// interior-first overlapped SpMM drives: the Start half ships the rows peers
// need without blocking, the Finish half collects this shard's expected
// payloads. Between the two calls the op multiplies every row that does not
// depend on halo data, so the wall time the blocking exchange would spend
// waiting for peers is spent computing instead. Start/Finish pairs must not
// nest or interleave on one worker, and every member of the replica group
// issues matching pairs in the same order (the model graphs are identical,
// so this holds structurally).
type AsyncHaloExchange interface {
	HaloExchange
	// Overlap reports whether the split-phase path should be used; false
	// keeps the blocking Gather/ScatterAdd schedule (the ablation baseline).
	Overlap() bool
	// GatherStart ships the owned rows peers need (non-blocking).
	GatherStart(local *tensor.Tensor)
	// GatherFinish blocks for and returns the halo rows [NumHalo, F].
	GatherFinish() *tensor.Tensor
	// ScatterAddStart ships the halo gradient rows back to their owners
	// (non-blocking).
	ScatterAddStart(haloGrad *tensor.Tensor)
	// ScatterAddFinish blocks for and returns the peers' summed
	// contributions to this shard's own rows as [own, F].
	ScatterAddFinish() *tensor.Tensor
}

// ShardSpMM is the spatially-partitioned sparse-dense product: local is one
// worker's re-indexed row block (columns [own | halo], see sparse.ShardCSR)
// and x holds the worker's own feature rows [own, F]. Forward gathers the
// halo rows from peer shards and multiplies the local block; backward
// propagates through the transposed block and scatter-adds the halo
// gradient rows back to their owner shards. The sparse operand is a
// constant (graph topology carries no gradient), exactly like SpMM.
//
// When ex implements AsyncHaloExchange with Overlap() true, both passes run
// the interior-first overlapped schedule: forward launches the halo exchange,
// multiplies the interior rows (all columns in [own]) while the bytes are in
// flight, and finishes the frontier rows once the halo lands; backward
// computes the transposed block's halo rows first, launches the reverse
// exchange, and multiplies the own rows under it. Because SpMM rows are
// independent and each row's accumulation order is unchanged, the overlapped
// results are bitwise identical to the blocking schedule.
func ShardSpMM(local *sparse.CSR, ex HaloExchange, x *Variable) *Variable {
	return shardSpMM(local, nil, ex, x)
}

// ShardSpMMBlock is ShardSpMM over a pre-split sparse.ShardCSR row block:
// the overlapped schedule reuses the block's Interior/Frontier partition
// instead of deriving it from the sparsity pattern on every call.
func ShardSpMMBlock(block *sparse.ShardCSR, ex HaloExchange, x *Variable) *Variable {
	return shardSpMM(block.Local, block, ex, x)
}

// shardSpMM runs the product over local; block, when not nil, is the
// ShardCSR local came from. The interior-first schedule needs two row
// partitions: the forward interior/frontier split of the block rows, and the
// transposed block (local.Transposed()), whose backward mirror computes the
// halo row range [nOwn, ColsN) first so the reverse exchange can launch,
// then the own range [0, nOwn) while it flies.
func shardSpMM(local *sparse.CSR, block *sparse.ShardCSR, ex HaloExchange, x *Variable) *Variable {
	nOwn := local.RowsN
	if x.Value.Rank() != 2 || x.Value.Dim(0) != nOwn {
		panic(fmt.Sprintf("autograd: ShardSpMM expects [%d, F] features, got %v", nOwn, x.Value.Shape()))
	}
	if local.ColsN != nOwn+ex.NumHalo() {
		panic(fmt.Sprintf("autograd: ShardSpMM block has %d cols, want %d own + %d halo", local.ColsN, nOwn, ex.NumHalo()))
	}
	ax, overlap := ex.(AsyncHaloExchange)
	if overlap {
		overlap = ax.Overlap()
	}
	if !overlap {
		return shardSpMMBlocking(local, ex, x)
	}

	var interior, frontier []int
	if block != nil {
		interior, frontier = block.Interior, block.Frontier
	} else {
		interior, frontier = sparse.InteriorFrontier(local, nOwn)
	}
	f := x.Value.Dim(1)
	xc := x.Value.Contiguous()
	ax.GatherStart(xc) // always started: peers may need our rows
	out := tensor.New(nOwn, f)
	local.SpMMRowsInto(interior, xc, out) // interior columns all fall in [own]
	halo := ax.GatherFinish()
	ext := xc
	if ex.NumHalo() > 0 {
		ext = tensor.Concat(0, xc, halo)
	}
	local.SpMMRowsInto(frontier, ext, out)

	return newOp("shardSpMM", out, []*Variable{x}, func(grad *tensor.Tensor) []*tensor.Tensor {
		// Mirrored overlap: the transposed block's halo rows yield the halo
		// gradient, which ships while the own rows are multiplied.
		gc := grad.Contiguous()
		lt := local.Transposed()
		gext := tensor.New(local.ColsN, f)
		lt.SpMMRowRangeInto(nOwn, local.ColsN, gc, gext)
		var haloGrad *tensor.Tensor
		if ex.NumHalo() > 0 {
			haloGrad = gext.Slice(0, nOwn, local.ColsN).Contiguous()
		} else {
			haloGrad = tensor.New(0, f)
		}
		ax.ScatterAddStart(haloGrad)
		lt.SpMMRowRangeInto(0, nOwn, gc, gext)
		own := gext.Slice(0, 0, nOwn).Contiguous()
		remote := ax.ScatterAddFinish()
		return []*tensor.Tensor{tensor.Add(own, remote)}
	})
}

// shardSpMMBlocking is the gather-then-multiply baseline schedule.
func shardSpMMBlocking(local *sparse.CSR, ex HaloExchange, x *Variable) *Variable {
	nOwn := local.RowsN
	halo := ex.Gather(x.Value) // [numHalo, F]; always called: peers may need our rows
	ext := x.Value
	if ex.NumHalo() > 0 {
		ext = tensor.Concat(0, x.Value.Contiguous(), halo)
	}
	out := local.SpMM(ext)
	return newOp("shardSpMM", out, []*Variable{x}, func(grad *tensor.Tensor) []*tensor.Tensor {
		gext := local.Transposed().SpMM(grad) // [own+halo, F]
		var own, haloGrad *tensor.Tensor
		if ex.NumHalo() > 0 {
			own = gext.Slice(0, 0, nOwn).Contiguous()
			haloGrad = gext.Slice(0, nOwn, local.ColsN).Contiguous()
		} else {
			own = gext
			haloGrad = tensor.New(0, grad.Dim(1))
		}
		// Peers' contributions to our own rows arrive in the reverse
		// exchange; always called, mirroring Gather.
		remote := ex.ScatterAdd(haloGrad)
		return []*tensor.Tensor{tensor.Add(own, remote)}
	})
}
