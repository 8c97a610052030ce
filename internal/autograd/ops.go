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
	return newOp("add", out, []*Variable{a, b}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{
			reduceGradTo(grad, a.Value),
			reduceGradTo(grad, b.Value),
		}
	})
}

// Sub returns a - b with broadcasting.
func Sub(a, b *Variable) *Variable {
	out := tensor.Sub(a.Value, b.Value)
	return newOp("sub", out, []*Variable{a, b}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{
			reduceGradTo(grad, a.Value),
			reduceGradTo(grad.Neg(), b.Value),
		}
	})
}

// Mul returns the element-wise product with broadcasting.
func Mul(a, b *Variable) *Variable {
	out := tensor.Mul(a.Value, b.Value)
	return newOp("mul", out, []*Variable{a, b}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{
			reduceGradTo(tensor.Mul(grad, b.Value), a.Value),
			reduceGradTo(tensor.Mul(grad, a.Value), b.Value),
		}
	})
}

// Neg returns -a.
func Neg(a *Variable) *Variable {
	return newOp("neg", a.Value.Neg(), []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{grad.Neg()}
	})
}

// ScalarMul returns a * s for a constant scalar s.
func ScalarMul(a *Variable, s float64) *Variable {
	return newOp("scalarMul", a.Value.MulScalar(s), []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{grad.MulScalar(s)}
	})
}

// AddScalar returns a + s for a constant scalar s.
func AddScalar(a *Variable, s float64) *Variable {
	return newOp("addScalar", a.Value.AddScalar(s), []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{grad}
	})
}

// MatMul returns the matrix product a @ b for rank-2 variables.
func MatMul(a, b *Variable) *Variable {
	out := tensor.MatMul(a.Value, b.Value)
	return newOp("matmul", out, []*Variable{a, b}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{
			tensor.MatMulNT(grad, b.Value),
			tensor.MatMulTN(a.Value, grad),
		}
	})
}

// SpMM returns the sparse-dense product m @ x, where the sparse operand is a
// constant (graph structure carries no gradient). Backward: grad_x = m^T @ g.
func SpMM(m *sparse.CSR, x *Variable) *Variable {
	out := m.SpMM(x.Value)
	return newOp("spmm", out, []*Variable{x}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{m.Transposed().SpMM(grad)}
	})
}

// OneMinus returns 1 - a, the gating complement of GRU-style cells, as one
// op. 1-v and (-v)+1 round alike, so it is bitwise AddScalar(Neg(a), 1).
func OneMinus(a *Variable) *Variable {
	out := a.Value.Apply(func(v float64) float64 { return 1 - v })
	return newOp("oneMinus", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{grad.Neg()}
	})
}

// Sigmoid returns the element-wise logistic function. Backward is one pass,
// g*(s*(1-s)), rounded as the derivative tensor times g would be.
func Sigmoid(a *Variable) *Variable {
	s := a.Value.Sigmoid()
	return newOp("sigmoid", s, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Binary(grad, s, func(g, v float64) float64 { return g * (v * (1 - v)) })}
	})
}

// Tanh returns the element-wise hyperbolic tangent. Backward is one pass,
// g*(1-t*t), rounded as the derivative tensor times g would be.
func Tanh(a *Variable) *Variable {
	t := a.Value.Tanh()
	return newOp("tanh", t, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Binary(grad, t, func(g, v float64) float64 { return g * (1 - v*v) })}
	})
}

// Relu returns max(a, 0) element-wise.
func Relu(a *Variable) *Variable {
	out := a.Value.Relu()
	return newOp("relu", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		mask := a.Value.Apply(func(v float64) float64 {
			if v > 0 {
				return 1
			}
			return 0
		})
		return []*tensor.Tensor{tensor.Mul(grad, mask)}
	})
}

// Concat concatenates variables along axis.
func Concat(axis int, vars ...*Variable) *Variable {
	vals := make([]*tensor.Tensor, len(vars))
	for i, v := range vars {
		vals[i] = v.Value
	}
	out := tensor.Concat(axis, vals...)
	return newOp("concat", out, vars, func(grad *tensor.Tensor) []*tensor.Tensor {
		grads := make([]*tensor.Tensor, len(vars))
		pos := 0
		for i, v := range vars {
			n := v.Value.Dim(axis)
			grads[i] = grad.Slice(axis, pos, pos+n).Contiguous()
			pos += n
		}
		return grads
	})
}

// Stack stacks same-shaped variables along a new axis.
func Stack(axis int, vars ...*Variable) *Variable {
	vals := make([]*tensor.Tensor, len(vars))
	for i, v := range vars {
		vals[i] = v.Value
	}
	out := tensor.Stack(axis, vals...)
	return newOp("stack", out, vars, func(grad *tensor.Tensor) []*tensor.Tensor {
		grads := make([]*tensor.Tensor, len(vars))
		for i := range vars {
			grads[i] = grad.Index(axis, i).Contiguous()
		}
		return grads
	})
}

// Slice returns the zero-copy view of a restricted to [start, end) along
// axis; backward copies the gradient into that range of a fresh zero tensor
// of a's shape.
func Slice(a *Variable, axis, start, end int) *Variable {
	out := a.Value.Slice(axis, start, end)
	return newOp("slice", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		full := tensor.ZerosLike(a.Value)
		full.Slice(axis, start, end).CopyFrom(grad)
		return []*tensor.Tensor{full}
	})
}

// Reshape returns a reshaped variable.
func Reshape(a *Variable, shape ...int) *Variable {
	out := a.Value.Reshape(shape...)
	return newOp("reshape", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{grad.ReshapeLike(a.Value)}
	})
}

// Transpose exchanges two axes.
func Transpose(a *Variable, x, y int) *Variable {
	out := a.Value.Transpose(x, y)
	return newOp("transpose", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{grad.Transpose(x, y).Contiguous()}
	})
}

// SumAll reduces a to a scalar by summation.
func SumAll(a *Variable) *Variable {
	out := tensor.Scalar(a.Value.SumAll())
	return newOp("sumAll", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.FullLike(grad.Item(), a.Value)}
	})
}

// MeanAll reduces a to a scalar by arithmetic mean.
func MeanAll(a *Variable) *Variable {
	n := a.Value.NumElements()
	out := tensor.Scalar(a.Value.MeanAll())
	return newOp("meanAll", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.FullLike(grad.Item()/float64(n), a.Value)}
	})
}

// Softmax applies softmax along the last axis.
func Softmax(a *Variable) *Variable {
	out := softmaxLastAxis(a.Value)
	return newOp("softmax", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		// dL/dx = s * (g - sum(g*s, last axis, keepdims))
		gs := tensor.Mul(grad, out)
		last := out.Rank() - 1
		sum := gs.Sum(last).Unsqueeze(last)
		return []*tensor.Tensor{tensor.Mul(out, tensor.Sub(grad, sum))}
	})
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

// GatherRows selects rows of a (axis 0) by index — the embedding-lookup
// primitive. Backward scatter-adds the gradient into the selected rows.
func GatherRows(a *Variable, indices []int) *Variable {
	out := a.Value.GatherRows(indices)
	return newOp("gatherRows", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		full := tensor.ZerosLike(a.Value)
		for i, idx := range indices {
			full.Index(0, idx).AddInPlace(grad.Index(0, i))
		}
		return []*tensor.Tensor{full}
	})
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
	return newOp("layerNorm", out, []*Variable{a, gamma, beta}, func(grad *tensor.Tensor) []*tensor.Tensor {
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
		return []*tensor.Tensor{dx, dGamma, dBeta}
	})
}
