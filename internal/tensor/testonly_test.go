package tensor

import (
	"fmt"
	"math"

	"pgti/internal/parallel"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Max reduces along axis by maximum, returning a tensor with that axis
// removed.
func (t *Tensor) Max(axis int) *Tensor {
	return t.reduceAxis(axis, math.Inf(-1), math.Max)
}

// Min reduces along axis by minimum.
func (t *Tensor) Min(axis int) *Tensor {
	return t.reduceAxis(axis, math.Inf(1), math.Min)
}

func (t *Tensor) reduceAxis(axis int, init float64, f func(a, b float64) float64) *Tensor {
	if axis < 0 || axis >= len(t.shape) {
		panic(fmt.Sprintf("tensor: reduce axis %d out of range for rank %d", axis, len(t.shape)))
	}
	out := t.zerosWithoutAxis(axis)
	out.Fill(init)
	for i := 0; i < t.shape[axis]; i++ {
		slice := t.Index(axis, i)
		oi := newIterator(out)
		si := newIterator(slice)
		for oi.next() && si.next() {
			out.data[oi.pos] = f(out.data[oi.pos], slice.data[si.pos])
		}
	}
	return out
}

// ArgMax returns the index of the maximum element along the last axis for a
// rank-2 tensor, one index per row.
func (t *Tensor) ArgMax() []int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgMax requires rank 2, got %v", t.Shape()))
	}
	rows, cols := t.Dim(0), t.Dim(1)
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best := math.Inf(-1)
		for c := 0; c < cols; c++ {
			if v := t.At(r, c); v > best {
				best = v
				out[r] = c
			}
		}
	}
	return out
}

// Clamp returns t with every element restricted to [lo, hi].
func (t *Tensor) Clamp(lo, hi float64) *Tensor {
	return t.Apply(func(v float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}

// Pow returns t raised element-wise to the constant power p.
func (t *Tensor) Pow(p float64) *Tensor {
	return t.Apply(func(v float64) float64 { return math.Pow(v, p) })
}

// Log returns the element-wise natural logarithm.
func (t *Tensor) Log() *Tensor { return t.Apply(math.Log) }

// Norm returns the L2 norm of all elements.
func (t *Tensor) Norm() float64 {
	if t.IsContiguous() {
		d := t.Data()
		sq := parallel.Sum(len(d), elemGrain, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += d[i] * d[i]
			}
			return s
		})
		return math.Sqrt(sq)
	}
	var sq float64
	it := newIterator(t)
	for it.next() {
		v := t.data[it.pos]
		sq += v * v
	}
	return math.Sqrt(sq)
}

// Flatten returns a rank-1 view (contiguous t) or copy of t's elements.
func (t *Tensor) Flatten() *Tensor { return t.Reshape(t.NumElements()) }

// MatMulNaive is the oracle: the plain ikj loop in Go, with no tiling and no
// SIMD. MatMul, MatMulNT and MatMulTN must agree with it bitwise, and it is
// the ablation baseline of the serial-vs-tiled benchmark.
func MatMulNaive(a, b *Tensor) *Tensor {
	return matMul(New(a.Dim(0), b.Dim(b.Rank()-1)), a, b, matmulRows)
}

// MatMulNT returns a @ bᵀ for a [m,n] and b [k,n] ([m,k]): MatMul against
// one dense copy of bᵀ, the form the MatMul backward computes.
func MatMulNT(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulNT requires [m,n] x [k,n], got %v and %v", a.shape, b.shape))
	}
	return MatMul(a, b.T().Contiguous())
}

// MatVec returns the matrix-vector product a @ x for a rank-2 a ([m,k]) and
// rank-1 x ([k]), yielding a rank-1 result ([m]).
func MatVec(a, x *Tensor) *Tensor {
	if len(a.shape) != 2 || len(x.shape) != 1 {
		panic(fmt.Sprintf("tensor: MatVec requires [m,k] x [k], got %v and %v", a.shape, x.shape))
	}
	res := MatMul(a, x.Reshape(x.shape[0], 1))
	return res.Reshape(a.shape[0])
}

// Outer returns the outer product of two vectors ([m] x [n] -> [m,n]).
func Outer(a, b *Tensor) *Tensor {
	if len(a.shape) != 1 || len(b.shape) != 1 {
		panic(fmt.Sprintf("tensor: Outer requires rank-1 operands, got %v and %v", a.shape, b.shape))
	}
	return MatMul(a.Reshape(a.shape[0], 1), b.Reshape(1, b.shape[0]))
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.shape) != 1 || len(b.shape) != 1 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: Dot requires equal-length vectors, got %v and %v", a.shape, b.shape))
	}
	ad := a.Contiguous().Data()
	bd := b.Contiguous().Data()
	return parallel.Sum(len(ad), elemGrain, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += ad[i] * bd[i]
		}
		return s
	})
}

// BroadcastTo returns a read-only zero-copy view of t expanded to shape.
func (t *Tensor) BroadcastTo(shape ...int) *Tensor { return t.broadcastTo(shape) }

// Div returns the element-wise quotient a / b with broadcasting.
func Div(a, b *Tensor) *Tensor { return Binary(a, b, func(x, y float64) float64 { return x / y }) }

// SubInPlace subtracts o from t element-wise (o broadcast to t's shape).
func (t *Tensor) SubInPlace(o *Tensor) {
	t.updateInPlace(o, func(td, od []float64) {
		for i := range td {
			td[i] -= od[i]
		}
	})
}

// MulInPlace multiplies t by o element-wise (o broadcast to t's shape).
func (t *Tensor) MulInPlace(o *Tensor) {
	t.updateInPlace(o, func(td, od []float64) {
		for i := range td {
			td[i] *= od[i]
		}
	})
}

// AxpyInPlace computes t += alpha * o for same-shaped tensors, the BLAS
// axpy primitive used by the optimizers and gradient accumulation.
func (t *Tensor) AxpyInPlace(alpha float64, o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AxpyInPlace shape mismatch %v vs %v", t.shape, o.shape))
	}
	if t.IsContiguous() && o.IsContiguous() {
		td, od := t.Data(), o.Data()
		vec := UseSIMD(len(td))
		parallel.For(len(td), elemGrain, func(lo, hi int) {
			if vec {
				Axpy(alpha, od[lo:hi], td[lo:hi])
				return
			}
			for i := lo; i < hi; i++ {
				td[i] += alpha * od[i]
			}
		})
		return
	}
	ti := newIterator(t)
	oi := newIterator(o)
	for ti.next() && oi.next() {
		t.data[ti.pos] += alpha * o.data[oi.pos]
	}
}

// Mean reduces along axis by arithmetic mean.
func (t *Tensor) Mean(axis int) *Tensor {
	n := t.shape[axis]
	out := t.Sum(axis)
	if n > 0 {
		out.ScaleInPlace(1 / float64(n))
	}
	return out
}

// Permute returns a zero-copy view with axes reordered by perm.
func (t *Tensor) Permute(perm ...int) *Tensor {
	if len(perm) != len(t.shape) {
		panic(fmt.Sprintf("tensor: Permute %v has wrong length for rank %d", perm, len(t.shape)))
	}
	seen := make([]bool, len(perm))
	v := newHeader(t.data, t.offset, len(perm))
	for i, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			panic(fmt.Sprintf("tensor: Permute %v is not a permutation", perm))
		}
		seen[p] = true
		v.shape[i] = t.shape[p]
		v.strides[i] = t.strides[p]
	}
	return v
}

// Squeeze removes all dimensions of size 1.
func (t *Tensor) Squeeze() *Tensor {
	rank := 0
	for _, d := range t.shape {
		if d != 1 {
			rank++
		}
	}
	v := newHeader(t.data, t.offset, rank)
	k := 0
	for i, d := range t.shape {
		if d != 1 {
			v.shape[k], v.strides[k] = d, t.strides[i]
			k++
		}
	}
	return v
}

// zerosWithoutAxis returns a zero-filled tensor of t's shape with axis
// removed, the result shape of the axis reductions.
func (t *Tensor) zerosWithoutAxis(axis int) *Tensor {
	var buf [inlineRank]int
	return New(t.sumShape(buf[:0], axis)...)
}

// Add returns a + b with broadcasting.
func Add(a, b *Tensor) *Tensor { return Binary(a, b, func(x, y float64) float64 { return x + y }) }

// Neg returns -t.
func (t *Tensor) Neg() *Tensor { return t.MulScalar(-1) }

// Abs returns |t| element-wise.
func (t *Tensor) Abs() *Tensor { return t.Apply(math.Abs) }

// Tanh returns tanh(t) element-wise.
func (t *Tensor) Tanh() *Tensor { return t.Apply(math.Tanh) }

// Relu returns max(t, 0) element-wise.
func (t *Tensor) Relu() *Tensor {
	return t.Apply(func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// ZerosLike returns a zero-filled tensor with t's shape.
func ZerosLike(t *Tensor) *Tensor { return New(t.shape...) }

// Sum reduces along axis, returning a tensor with that axis removed.
func (t *Tensor) Sum(axis int) *Tensor { return (*Arena)(nil).Sum(t, axis) }

// Concat concatenates tensors along axis into a fresh contiguous tensor.
func Concat(axis int, ts ...*Tensor) *Tensor { return (*Arena)(nil).Concat(axis, ts...) }

// BMM returns the batched matrix product [B, m, k] x [B, k, n] -> [B, m, n].
func BMM(a, b *Tensor) *Tensor { return BMMInto(New(a.Dim(0), a.Dim(1), b.Dim(2)), a, b) }

// MatMulTN returns aᵀ @ g for a [m,k] and g [m,n] ([k,n]).
func MatMulTN(a, g *Tensor) *Tensor {
	return MatMulTNInto(New(a.Dim(a.Rank()-1), g.Dim(g.Rank()-1)), a, g)
}
