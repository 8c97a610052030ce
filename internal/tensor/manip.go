package tensor

import "fmt"

// Concat concatenates tensors along axis. All inputs must agree on every
// other dimension. The result is a fresh contiguous tensor.
func Concat(axis int, ts ...*Tensor) *Tensor {
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
	shape := cloneInts(first.shape)
	shape[axis] = total
	out := New(shape...)
	pos := 0
	for _, t := range ts {
		out.Slice(axis, pos, pos+t.shape[axis]).CopyFrom(t)
		pos += t.shape[axis]
	}
	return out
}

// Stack stacks same-shaped tensors along a new leading axis position.
func Stack(axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Stack of zero tensors")
	}
	first := ts[0]
	if axis < 0 || axis > len(first.shape) {
		panic(fmt.Sprintf("tensor: Stack axis %d out of range for rank %d", axis, len(first.shape)))
	}
	shape := make([]int, 0, len(first.shape)+1)
	shape = append(shape, first.shape[:axis]...)
	shape = append(shape, len(ts))
	shape = append(shape, first.shape[axis:]...)
	out := New(shape...)
	for i, t := range ts {
		if !t.SameShape(first) {
			panic(fmt.Sprintf("tensor: Stack shape mismatch %v vs %v", first.shape, t.shape))
		}
		out.Index(axis, i).CopyFrom(t)
	}
	return out
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
