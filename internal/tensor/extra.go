package tensor

import (
	"fmt"
	"math"

	"pgti/internal/parallel"
)

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

// BMM computes the batched matrix product of two rank-3 tensors:
// [B, m, k] x [B, k, n] -> [B, m, n]. Batch elements are processed in
// parallel when the work is large enough; ST-LLM-style attention uses this
// to avoid per-batch Go loops.
func BMM(a, b *Tensor) *Tensor {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BMM requires rank-3 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	bs, m, k := a.Dim(0), a.Dim(1), a.Dim(2)
	if b.Dim(0) != bs || b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: BMM shape mismatch %v x %v", a.Shape(), b.Shape()))
	}
	n := b.Dim(2)
	ac := a.Contiguous()
	bc := b.Contiguous()
	out := New(bs, m, n)
	ad, bd, od := ac.Data(), bc.Data(), out.Data()

	grain := parallel.GrainFor(m*k*n, parallelThreshold)
	parallel.For(bs, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			matmulRows(ad[i*m*k:(i+1)*m*k], bd[i*k*n:(i+1)*k*n], od[i*m*n:(i+1)*m*n], 0, m, k, n)
		}
	})
	return out
}
