package autograd

import (
	"fmt"
	"math"

	"pgti/internal/parallel"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// rowKernelThreshold is the minimum per-chunk work (row length in elements,
// weighted by the transcendental cost) a parallel row-wise kernel (softmax,
// layer norm) carries; smaller workloads collapse to one serial chunk.
const rowKernelThreshold = 4 * 1024

// Add returns a + b with broadcasting.
func Add(a, b *Variable) *Variable {
	out := tensor.Add(a.Value, b.Value)
	if v := untracked(out, a, b); v != nil {
		return v
	}
	return newOp("add", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0], dst[1] = reduceGradTo(grad, a.Value), reduceGradTo(grad, b.Value)
	}, a, b)
}

// Mul returns the element-wise product with broadcasting.
func Mul(a, b *Variable) *Variable {
	out := tensor.Mul(a.Value, b.Value)
	if v := untracked(out, a, b); v != nil {
		return v
	}
	return newOp("mul", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0] = reduceGradTo(tensor.Mul(grad, b.Value), a.Value)
		dst[1] = reduceGradTo(tensor.Mul(grad, a.Value), b.Value)
	}, a, b)
}

// ScalarMul returns a * s for a constant scalar s.
func ScalarMul(a *Variable, s float64) *Variable {
	out := a.Value.MulScalar(s)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("scalarMul", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = grad.MulScalar(s) }, a)
}

// MatMul returns the matrix product a @ b for rank-2 variables.
func MatMul(a, b *Variable) *Variable {
	out := tensor.MatMul(a.Value, b.Value)
	if v := untracked(out, a, b); v != nil {
		return v
	}
	return newOp("matmul", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0], dst[1] = tensor.MatMulNT(grad, b.Value), tensor.MatMulTN(a.Value, grad)
	}, a, b)
}

// SpMM returns the sparse-dense product m @ x, where the sparse operand is a
// constant (graph structure carries no gradient). Backward: grad_x = m^T @ g.
func SpMM(m *sparse.CSR, x *Variable) *Variable {
	out := m.SpMM(x.Value)
	if v := untracked(out, x); v != nil {
		return v
	}
	return newOp("spmm", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = m.Transposed().SpMM(grad) }, x)
}

// OneMinus returns 1 - a, the gating complement of GRU-style cells, as one
// op. 1-v and (-v)+1 round alike, so it is bitwise AddScalar(Neg(a), 1).
func OneMinus(a *Variable) *Variable {
	out := a.Value.Apply(func(v float64) float64 { return 1 - v })
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("oneMinus", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = grad.Neg() }, a)
}

// Sigmoid returns the element-wise logistic function. Backward is one pass,
// g*(s*(1-s)), rounded as the derivative tensor times g would be.
func Sigmoid(a *Variable) *Variable {
	s := a.Value.Sigmoid()
	if v := untracked(s, a); v != nil {
		return v
	}
	return newOp("sigmoid", s, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0] = tensor.Binary(grad, s, func(g, v float64) float64 { return g * (v * (1 - v)) })
	}, a)
}

// Tanh returns the element-wise hyperbolic tangent. Backward is one pass,
// g*(1-t*t), rounded as the derivative tensor times g would be.
func Tanh(a *Variable) *Variable {
	t := a.Value.Tanh()
	if v := untracked(t, a); v != nil {
		return v
	}
	return newOp("tanh", t, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0] = tensor.Binary(grad, t, func(g, v float64) float64 { return g * (1 - v*v) })
	}, a)
}

// Relu returns max(a, 0) element-wise.
func Relu(a *Variable) *Variable {
	out := a.Value.Relu()
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("relu", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		mask := a.Value.Apply(func(v float64) float64 {
			if v > 0 {
				return 1
			}
			return 0
		})
		dst[0] = tensor.Mul(grad, mask)
	}, a)
}

// Concat concatenates variables along axis.
func Concat(axis int, vars ...*Variable) *Variable {
	vals := make([]*tensor.Tensor, len(vars))
	for i, v := range vars {
		vals[i] = v.Value
	}
	out := tensor.Concat(axis, vals...)
	if v := untracked(out, vars...); v != nil {
		return v
	}
	return newOpN("concat", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		pos := 0
		for i, v := range vars {
			n := v.Value.Dim(axis)
			dst[i] = grad.Slice(axis, pos, pos+n).Contiguous()
			pos += n
		}
	}, vars)
}

// Stack stacks same-shaped variables along a new axis.
func Stack(axis int, vars ...*Variable) *Variable {
	vals := make([]*tensor.Tensor, len(vars))
	for i, v := range vars {
		vals[i] = v.Value
	}
	out := tensor.Stack(axis, vals...)
	if v := untracked(out, vars...); v != nil {
		return v
	}
	return newOpN("stack", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		for i := range dst {
			dst[i] = grad.Index(axis, i).Contiguous()
		}
	}, vars)
}

// Slice returns the zero-copy view of a restricted to [start, end) along
// axis; backward copies the gradient into that range of a fresh zero tensor
// of a's shape.
func Slice(a *Variable, axis, start, end int) *Variable {
	out := a.Value.Slice(axis, start, end)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("slice", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0] = tensor.ZerosLike(a.Value)
		dst[0].Slice(axis, start, end).CopyFrom(grad)
	}, a)
}

// Reshape returns a reshaped variable.
func Reshape(a *Variable, shape ...int) *Variable {
	out := a.Value.Reshape(shape...)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("reshape", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = grad.ReshapeLike(a.Value) }, a)
}

// Transpose exchanges two axes.
func Transpose(a *Variable, x, y int) *Variable {
	out := a.Value.Transpose(x, y)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("transpose", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = grad.Transpose(x, y).Contiguous() }, a)
}

// SumAll reduces a to a scalar by summation.
func SumAll(a *Variable) *Variable {
	out := tensor.Scalar(a.Value.SumAll())
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("sumAll", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = tensor.FullLike(grad.Item(), a.Value) }, a)
}

// MeanAll reduces a to a scalar by arithmetic mean.
func MeanAll(a *Variable) *Variable {
	n := a.Value.NumElements()
	out := tensor.Scalar(a.Value.MeanAll())
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("meanAll", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0] = tensor.FullLike(grad.Item()/float64(n), a.Value)
	}, a)
}

// Softmax applies softmax along the last axis.
func Softmax(a *Variable) *Variable {
	out := softmaxLastAxis(a.Value)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("softmax", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		// dL/dx = s * (g - sum(g*s, last axis, keepdims))
		gs := tensor.Mul(grad, out)
		last := out.Rank() - 1
		sum := gs.Sum(last).Unsqueeze(last)
		dst[0] = tensor.Mul(out, tensor.Sub(grad, sum))
	}, a)
}

func softmaxLastAxis(t *tensor.Tensor) *tensor.Tensor {
	last := t.Rank() - 1
	if last < 0 {
		panic("autograd: Softmax requires rank >= 1")
	}
	tc := t.Contiguous()
	out := tensor.ZerosLike(t)
	cols := t.Dim(last)
	rows := t.NumElements() / cols
	src := tc.Data()
	dst := out.Data()
	// Rows are independent; fan the row loop over the worker pool (exp
	// dominates, so each element counts as several work units).
	parallel.For(rows, parallel.GrainFor(4*cols, rowKernelThreshold), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := src[r*cols : (r+1)*cols]
			orow := dst[r*cols : (r+1)*cols]
			maxV := math.Inf(-1)
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for i, v := range row {
				e := math.Exp(v - maxV)
				orow[i] = e
				sum += e
			}
			for i := range orow {
				orow[i] /= sum
			}
		}
	})
	return out
}

// LayerNorm normalizes a over its last axis and applies a learned affine
// transform: gamma * (x - mu) / sqrt(var + eps) + beta. gamma and beta must
// be rank-1 with the size of the last axis.
func LayerNorm(a, gamma, beta *Variable, eps float64) *Variable {
	last := a.Value.Rank() - 1
	cols := a.Value.Dim(last)
	if gamma.Value.Rank() != 1 || gamma.Value.Dim(0) != cols || beta.Value.Rank() != 1 || beta.Value.Dim(0) != cols {
		panic(fmt.Sprintf("autograd: LayerNorm affine params must be rank-1 of size %d", cols))
	}
	ac := a.Value.Contiguous()
	rows := a.Value.NumElements() / cols
	src := ac.Data()
	norm := tensor.ZerosLike(a.Value)
	nd := norm.Data()
	invStd := make([]float64, rows)
	// Row statistics are independent; fan the row loop over the worker pool.
	parallel.For(rows, parallel.GrainFor(cols, rowKernelThreshold), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := src[r*cols : (r+1)*cols]
			var mu float64
			for _, v := range row {
				mu += v
			}
			mu /= float64(cols)
			var va float64
			for _, v := range row {
				d := v - mu
				va += d * d
			}
			va /= float64(cols)
			is := 1 / math.Sqrt(va+eps)
			invStd[r] = is
			orow := nd[r*cols : (r+1)*cols]
			for i, v := range row {
				orow[i] = (v - mu) * is
			}
		}
	})
	out := tensor.Add(tensor.Mul(norm, gamma.Value), beta.Value)
	if v := untracked(out, a, gamma, beta); v != nil {
		return v
	}
	return newOp("layerNorm", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		gc := grad.Contiguous()
		gd := gc.Data()
		gammaD := gamma.Value.Contiguous().Data()
		dx := tensor.ZerosLike(a.Value)
		dxd := dx.Data()
		dGamma := tensor.New(cols)
		dBeta := tensor.New(cols)
		dgd := dGamma.Data()
		dbd := dBeta.Data()
		// dx rows are disjoint; the dGamma/dBeta accumulators are shared, so
		// each chunk sums into its own partial and the partials reduce in
		// chunk order afterwards — deterministic on any pool width, since
		// the chunk layout depends only on (rows, grain).
		grain := parallel.GrainFor(2*cols, rowKernelThreshold)
		chunks := parallel.NumChunks(rows, grain)
		partG := make([][]float64, chunks)
		partB := make([][]float64, chunks)
		parallel.ForIndexed(rows, grain, func(c, lo, hi int) {
			pg := make([]float64, cols)
			pb := make([]float64, cols)
			partG[c], partB[c] = pg, pb
			for r := lo; r < hi; r++ {
				grow := gd[r*cols : (r+1)*cols]
				nrow := nd[r*cols : (r+1)*cols]
				// dnorm = grad * gamma; classic layer-norm backward.
				var sumD, sumDN float64
				for i := 0; i < cols; i++ {
					dn := grow[i] * gammaD[i]
					sumD += dn
					sumDN += dn * nrow[i]
					pg[i] += grow[i] * nrow[i]
					pb[i] += grow[i]
				}
				is := invStd[r]
				inv := 1 / float64(cols)
				drow := dxd[r*cols : (r+1)*cols]
				for i := 0; i < cols; i++ {
					dn := grow[i] * gammaD[i]
					drow[i] = is * (dn - inv*sumD - inv*nrow[i]*sumDN)
				}
			}
		})
		for c := 0; c < chunks; c++ {
			for i := 0; i < cols; i++ {
				dgd[i] += partG[c][i]
				dbd[i] += partB[c][i]
			}
		}
		dst[0], dst[1], dst[2] = dx, dGamma, dBeta
	}, a, gamma, beta)
}

// BMM returns the batched matrix product [B,m,k] x [B,k,n] -> [B,m,n].
func BMM(a, b *Variable) *Variable {
	out := tensor.BMM(a.Value, b.Value)
	if v := untracked(out, a, b); v != nil {
		return v
	}
	return newOp("bmm", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		// grad_a[i] = grad[i] @ b[i]^T ; grad_b[i] = a[i]^T @ grad[i]
		bt := b.Value.Transpose(1, 2).Contiguous()
		at := a.Value.Transpose(1, 2).Contiguous()
		dst[0], dst[1] = tensor.BMM(grad, bt), tensor.BMM(at, grad)
	}, a, b)
}
