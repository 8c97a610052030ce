package tensor

import (
	"fmt"
	"math"

	"pgti/internal/parallel"
)

// SumAll returns the sum of all elements. Contiguous tensors reduce in
// parallel with deterministic (chunk-ordered) partial summation.
func (t *Tensor) SumAll() float64 {
	if t.IsContiguous() {
		d := t.Data()
		return parallel.Sum(len(d), elemGrain, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += d[i]
			}
			return s
		})
	}
	var s float64
	it := newIterator(t)
	for it.next() {
		s += t.data[it.pos]
	}
	return s
}

// MeanAll returns the mean of all elements (0 for empty tensors).
func (t *Tensor) MeanAll() float64 {
	n := t.NumElements()
	if n == 0 {
		return 0
	}
	return t.SumAll() / float64(n)
}

// StdAll returns the population standard deviation of all elements.
func (t *Tensor) StdAll() float64 {
	n := t.NumElements()
	if n == 0 {
		return 0
	}
	mu := t.MeanAll()
	var acc float64
	it := newIterator(t)
	for it.next() {
		d := t.data[it.pos] - mu
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// MaxAll returns the maximum element (-Inf for empty tensors).
func (t *Tensor) MaxAll() float64 {
	best := math.Inf(-1)
	it := newIterator(t)
	for it.next() {
		if t.data[it.pos] > best {
			best = t.data[it.pos]
		}
	}
	return best
}

// MinAll returns the minimum element (+Inf for empty tensors).
func (t *Tensor) MinAll() float64 {
	best := math.Inf(1)
	it := newIterator(t)
	for it.next() {
		if t.data[it.pos] < best {
			best = t.data[it.pos]
		}
	}
	return best
}

// Sum reduces t along axis, returning a tensor from the arena with that
// axis removed. Every output element starts at zero and adds its inputs in
// ascending axis order, whichever path computes it.
func (a *Arena) Sum(t *Tensor, axis int) *Tensor {
	var buf [inlineRank]int
	return t.SumInto(a.New(t.sumShape(buf[:0], axis)...), axis)
}

// sumShape appends t's shape with axis removed, the shape of Sum(axis), to
// buf and returns it.
func (t *Tensor) sumShape(buf []int, axis int) []int {
	if axis < 0 || axis >= len(t.shape) {
		panic(fmt.Sprintf("tensor: Sum axis %d out of range for rank %d", axis, len(t.shape)))
	}
	return append(append(buf, t.shape[:axis]...), t.shape[axis+1:]...)
}

// SumInto writes t summed along axis into the contiguous dst of that shape
// and returns it. Each output row is cleared before it accumulates.
func (t *Tensor) SumInto(dst *Tensor, axis int) *Tensor {
	var buf [inlineRank]int
	dd := dstData(dst, t.sumShape(buf[:0], axis)...)
	n := t.shape[axis]
	if !t.IsContiguous() {
		clear(dd)
		for i := 0; i < n; i++ {
			dst.AddInPlace(t.Index(axis, i))
		}
		return dst
	}
	// A contiguous t is [outer, n, inner]: one pass over its elements.
	inner := 1
	for _, d := range t.shape[axis+1:] {
		inner *= d
	}
	src := t.Data()
	if inner == 1 {
		for o := range dd {
			var s float64
			for _, v := range src[o*n : (o+1)*n] {
				s += v
			}
			dd[o] = s
		}
		return dst
	}
	for o := 0; o*inner < len(dd); o++ {
		drow := dd[o*inner : (o+1)*inner]
		clear(drow)
		for i := 0; i < n; i++ {
			srow := src[(o*n+i)*inner : (o*n+i+1)*inner]
			for j, v := range srow {
				drow[j] += v
			}
		}
	}
	return dst
}
