package tensor

import (
	"fmt"

	"pgti/internal/parallel"
)

// BMMInto writes the batched matrix product of two rank-3 tensors,
// [B, m, k] x [B, k, n] -> [B, m, n], into the contiguous dst and returns
// it; each output row is cleared before it accumulates. Batch elements are
// processed in parallel when the work is large enough; ST-LLM-style
// attention uses this to avoid per-batch Go loops.
func BMMInto(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BMM requires rank-3 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	bs, m, k := a.Dim(0), a.Dim(1), a.Dim(2)
	if b.Dim(0) != bs || b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: BMM shape mismatch %v x %v", a.Shape(), b.Shape()))
	}
	n := b.Dim(2)
	ad, bd, od := a.Contiguous().Data(), b.Contiguous().Data(), dstData(dst, bs, m, n)

	grain := parallel.GrainFor(m*k*n, parallelThreshold)
	parallel.For(bs, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			matmulRows(ad[i*m*k:(i+1)*m*k], bd[i*k*n:(i+1)*k*n], od[i*m*n:(i+1)*m*n], 0, m, k, n)
		}
	})
	return dst
}
