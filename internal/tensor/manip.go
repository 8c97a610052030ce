package tensor

import "fmt"

// Concat concatenates tensors along axis into a contiguous tensor from the
// arena. All inputs must agree on every other dimension.
func (a *Arena) Concat(axis int, ts ...*Tensor) *Tensor {
	var buf [inlineRank]int
	return ConcatInto(a.New(concatShape(buf[:0], axis, ts)...), axis, ts...)
}

// ConcatInto writes the concatenation of ts along axis into dst, which must
// have the concatenation's shape, and returns it.
func ConcatInto(dst *Tensor, axis int, ts ...*Tensor) *Tensor {
	pos := 0
	for _, t := range ts {
		dst.Slice(axis, pos, pos+t.shape[axis]).CopyFrom(t)
		pos += t.shape[axis]
	}
	return dst
}

// concatShape appends the shape of the concatenation of ts along axis to
// buf and returns it, panicking when the inputs do not agree.
func concatShape(buf []int, axis int, ts []*Tensor) []int {
	if len(ts) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	first := ts[0]
	if axis < 0 || axis >= len(first.shape) {
		panic(fmt.Sprintf("tensor: Concat axis %d out of range for rank %d", axis, len(first.shape)))
	}
	total := 0
	for _, t := range ts {
		if len(t.shape) != len(first.shape) {
			panic(fmt.Sprintf("tensor: Concat rank mismatch %v vs %v", first.shape, t.shape))
		}
		for d := range t.shape {
			if d != axis && t.shape[d] != first.shape[d] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v on axis %d", first.shape, t.shape, d))
			}
		}
		total += t.shape[axis]
	}
	buf = append(buf, first.shape...)
	buf[len(buf)-len(first.shape)+axis] = total
	return buf
}

// Stack stacks same-shaped tensors along a new leading axis position.
func Stack(axis int, ts ...*Tensor) *Tensor { return (*Arena)(nil).Stack(axis, ts...) }

// Stack is Stack with the result's storage from the arena.
func (a *Arena) Stack(axis int, ts ...*Tensor) *Tensor {
	var buf [inlineRank]int
	return StackInto(a.New(stackShape(buf[:0], axis, ts)...), axis, ts...)
}

// StackInto writes ts, stacked along a new axis, into dst, which must have
// the stacked shape, and returns it.
func StackInto(dst *Tensor, axis int, ts ...*Tensor) *Tensor {
	for i, t := range ts {
		dst.Index(axis, i).CopyFrom(t)
	}
	return dst
}

// stackShape appends the shape of ts stacked along a new axis to buf and
// returns it, panicking when the inputs do not agree.
func stackShape(buf []int, axis int, ts []*Tensor) []int {
	if len(ts) == 0 {
		panic("tensor: Stack of zero tensors")
	}
	first := ts[0]
	if axis < 0 || axis > len(first.shape) {
		panic(fmt.Sprintf("tensor: Stack axis %d out of range for rank %d", axis, len(first.shape)))
	}
	for _, t := range ts {
		if !t.SameShape(first) {
			panic(fmt.Sprintf("tensor: Stack shape mismatch %v vs %v", first.shape, t.shape))
		}
	}
	buf = append(buf, first.shape[:axis]...)
	buf = append(buf, len(ts))
	return append(buf, first.shape[axis:]...)
}

// GatherRows returns a new tensor assembled from rows of t (axis 0) selected
// by indices, in order. Equivalent to t[indices] in NumPy.
func (t *Tensor) GatherRows(indices []int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: GatherRows on rank-0 tensor")
	}
	shape := cloneInts(t.shape)
	shape[0] = len(indices)
	out := New(shape...)
	for i, idx := range indices {
		if idx < 0 || idx >= t.shape[0] {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range [0,%d)", idx, t.shape[0]))
		}
		out.Index(0, i).CopyFrom(t.Index(0, idx))
	}
	return out
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	n := t.NumElements()
	if n > 64 {
		return fmt.Sprintf("Tensor(shape=%v, %d elements, mean=%.4g)", t.shape, n, t.MeanAll())
	}
	vals := make([]float64, 0, n)
	it := newIterator(t)
	for it.next() {
		vals = append(vals, t.data[it.pos])
	}
	return fmt.Sprintf("Tensor(shape=%v, data=%v)", t.shape, vals)
}
