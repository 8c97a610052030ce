// Package tensor implements dense, row-major, float64 tensors with
// shape/stride/offset semantics modeled on NumPy ndarrays.
//
// The central design requirement, inherited from the PGT-I paper, is
// zero-copy views: Slice, Index, Transpose, Unsqueeze and (for contiguous
// tensors) Reshape all return tensors that alias the caller's storage.
// Index-batching builds every spatiotemporal snapshot as such a view, so the
// memory cost of a snapshot is O(1) regardless of horizon.
//
// The copies that remain are explicit and pay for the elements only: Clone,
// Contiguous and CopyFrom move dense runs with copy() and everything else
// through one strided kernel (copyStrided), Sum over an axis of a contiguous
// tensor is one direct pass, and MatMulTN multiplies against a transposed
// operand in place instead of materializing the transpose (MatMulNT copies
// its bᵀ once, so that its output rows stream through the SIMD loop). A
// tensor of rank <= 4 is two allocations (header and elements) and a view of
// one is one: shape and strides live inside the header.
//
// # SIMD and the bitwise contract
//
// The inner loop of MatMul, MatMulNT, MatMulTN and the sparse
// package's SpMM kernels is y[j] += a*x[j] over one output row. On amd64 CPUs
// with AVX2, rows at least 8 elements wide go through Axpy, one assembly
// routine; a kernel decides once per call from its row width, and narrower
// rows keep the inline Go loop, in loops with no call in them. The routine
// keeps every pinned curve bitwise:
//   - lanes run across output elements only, never along a sum, so each
//     element's accumulation order is the scalar loop's;
//   - it multiplies, then adds (VMULPD, VADDPD), and never uses FMA, so each
//     element is rounded twice, as in the Go loop;
//   - its scalar tail is VEX-encoded (VMULSD, VADDSD) and it ends with
//     VZEROUPPER, so no legacy-SSE code around it pays an AVX transition;
//   - Go slices every operand before the call, so a bad index (a malformed
//     CSR column) panics on a bounds check instead of reading memory.
//
// The only bits that may differ are NaN payloads where two NaNs meet, which
// Go does not fix between two of its own loops either. The CPU is checked
// once, at package initialisation (CPUID and XGETBV). Other architectures,
// CPUs without AVX2 and builds with the purego tag run the Go loops, which
// are the tests' oracle: `go test -tags purego` runs the suite on them.
//
// Shape errors are programmer errors and panic with descriptive messages,
// matching the convention of numeric Go libraries; I/O and capacity errors
// are returned as error values by the packages layered above.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense float64 tensor. The zero value is not usable; construct
// tensors with New, FromSlice, Ones, Full, or the random helpers.
type Tensor struct {
	data    []float64
	shape   []int
	strides []int
	offset  int
	// dims backs shape and strides up to rank inlineRank, so such a header is
	// one allocation. The two slices point into their own struct: a Tensor
	// is never copied by value.
	dims [2 * inlineRank]int
}

// inlineRank is the largest rank whose shape and strides are stored inside
// the header; the models' tensors are [B, T, N, F] at most.
const inlineRank = 4

// newHeader returns a header over data with room for rank dimensions; the
// caller fills in shape and strides.
func newHeader(data []float64, offset, rank int) *Tensor {
	t := &Tensor{data: data, offset: offset}
	if rank <= inlineRank {
		t.shape = t.dims[:rank:rank]
		t.strides = t.dims[inlineRank : inlineRank+rank : inlineRank+rank]
	} else {
		dims := make([]int, 2*rank)
		t.shape, t.strides = dims[:rank:rank], dims[rank:]
	}
	return t
}

// withShape returns a contiguous header over data with the given shape.
func withShape(data []float64, offset int, shape []int) *Tensor {
	t := newHeader(data, offset, len(shape))
	copy(t.shape, shape)
	t.setContiguousStrides()
	return t
}

// setContiguousStrides sets the row-major strides of t's shape.
func (t *Tensor) setContiguousStrides() {
	acc := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.strides[i] = acc
		acc *= t.shape[i]
	}
}

// alias returns a header sharing t's storage, shape and strides, for the
// caller to edit into a view.
func (t *Tensor) alias() *Tensor {
	v := newHeader(t.data, t.offset, len(t.shape))
	copy(v.shape, t.shape)
	copy(v.strides, t.strides)
	return v
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return withShape(make([]float64, checkShape(shape)), 0, shape)
}

// ZerosLike returns a zero-filled tensor with t's shape.
func ZerosLike(t *Tensor) *Tensor { return New(t.shape...) }

// FullLike returns a tensor with t's shape filled with v.
func FullLike(v float64, t *Tensor) *Tensor { return Full(v, t.shape...) }

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full returns a tensor of the given shape filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The tensor aliases
// data; it does not copy. len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), cloneInts(shape), n))
	}
	return withShape(data, 0, shape)
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float64) *Tensor {
	return newHeader([]float64{v}, 0, 0)
}

// checkShape validates a shape and returns its element count. (The panic
// formats a copy so that callers' shape literals stay on their stacks.)
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", cloneInts(shape)))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneInts(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int {
	if i < 0 || i >= len(t.shape) {
		panic(fmt.Sprintf("tensor: Dim(%d) out of range for rank %d", i, len(t.shape)))
	}
	return t.shape[i]
}

// Strides returns a copy of the tensor's strides (in elements).
func (t *Tensor) Strides() []int { return cloneInts(t.strides) }

// NumElements returns the total number of elements.
func (t *Tensor) NumElements() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// NumBytes returns the logical size of the tensor's elements in bytes
// (8 bytes per float64 element). Views report the size of the view, not of
// the backing storage.
func (t *Tensor) NumBytes() int64 { return int64(t.NumElements()) * 8 }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// IsContiguous reports whether the tensor's elements are laid out densely in
// row-major order starting at its offset.
func (t *Tensor) IsContiguous() bool {
	acc := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		if t.shape[i] != 1 && t.strides[i] != acc {
			return false
		}
		acc *= t.shape[i]
	}
	return true
}

// SharesStorage reports whether t and o alias the same backing array.
// It is used by tests to verify the zero-copy guarantees of views.
func (t *Tensor) SharesStorage(o *Tensor) bool {
	return len(t.data) > 0 && len(o.data) > 0 && &t.data[0] == &o.data[0]
}

// SpansStorage reports whether t's elements are exactly its backing array,
// in order: nothing else can be reached through t.data, so whoever holds the
// only reference to t owns the storage outright. Autograd adopts such a
// gradient instead of copying it.
func (t *Tensor) SpansStorage() bool {
	return t.offset == 0 && t.NumElements() == len(t.data) && t.IsContiguous()
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.flatIndex(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.flatIndex(idx)] = v
}

func (t *Tensor) flatIndex(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	pos := t.offset
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		pos += x * t.strides[i]
	}
	return pos
}

// Item returns the sole element of a one-element tensor.
func (t *Tensor) Item() float64 {
	if t.NumElements() != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", t.NumElements()))
	}
	return t.data[t.offset] // every index of a one-element tensor is 0
}

// Data returns the raw backing slice of a contiguous tensor, starting at the
// tensor's first element. It panics for non-contiguous tensors; call
// Contiguous first in that case.
func (t *Tensor) Data() []float64 {
	if !t.IsContiguous() {
		panic("tensor: Data called on non-contiguous tensor; call Contiguous() first")
	}
	return t.data[t.offset : t.offset+t.NumElements()]
}

// Fill sets every element of t (including through views) to v.
func (t *Tensor) Fill(v float64) {
	if t.IsContiguous() {
		d := t.Data()
		for i := range d {
			d[i] = v
		}
		return
	}
	it := newIterator(t)
	for it.next() {
		t.data[it.pos] = v
	}
}

// Clone returns a contiguous deep copy of t.
func (t *Tensor) Clone() *Tensor {
	if t.IsContiguous() {
		// make+copy in this exact form skips zeroing the new elements.
		src := t.Data()
		data := make([]float64, len(src))
		copy(data, src)
		return withShape(data, 0, t.shape)
	}
	out := New(t.shape...)
	copyStrided(out, t)
	return out
}

// Contiguous returns t itself when already contiguous, or a contiguous deep
// copy otherwise.
func (t *Tensor) Contiguous() *Tensor {
	if t.IsContiguous() {
		return t
	}
	return t.Clone()
}

// CopyFrom copies the elements of src (same shape required) into t.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !t.SameShape(src) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	if t.IsContiguous() && src.IsContiguous() {
		copy(t.Data(), src.Data())
		return
	}
	copyStrided(t, src)
}

// copyStrided copies src into dst (same shape, any strides, stride 0
// included) in row-major order. The longest run of trailing axes that is
// dense in both tensors moves with one copy() per outer index; when there is
// none the last axis is a strided loop. The outer axes recurse.
func copyStrided(dst, src *Tensor) {
	shape := dst.shape
	if checkShape(shape) == 0 {
		return
	}
	outer, run := len(shape), 1
	for outer > 0 && (shape[outer-1] == 1 || (dst.strides[outer-1] == run && src.strides[outer-1] == run)) {
		run *= shape[outer-1]
		outer--
	}
	c := stridedCopy{dd: dst.data, sd: src.data, n: run, ds: 1, ss: 1}
	if run == 1 && outer > 0 {
		outer--
		c.n, c.ds, c.ss = shape[outer], dst.strides[outer], src.strides[outer]
	}
	c.shape, c.dstr, c.sstr = shape[:outer], dst.strides[:outer], src.strides[:outer]
	c.axis(0, dst.offset, src.offset)
}

// stridedCopy is one copyStrided call: the outer axes and the inner run of n
// elements at strides ds and ss.
type stridedCopy struct {
	dd, sd            []float64
	shape, dstr, sstr []int
	n, ds, ss         int
}

func (c *stridedCopy) axis(d, dpos, spos int) {
	if d < len(c.shape) {
		for i := 0; i < c.shape[d]; i++ {
			c.axis(d+1, dpos, spos)
			dpos += c.dstr[d]
			spos += c.sstr[d]
		}
		return
	}
	if c.ds == 1 && c.ss == 1 {
		copy(c.dd[dpos:dpos+c.n], c.sd[spos:spos+c.n])
		return
	}
	for i := 0; i < c.n; i++ {
		c.dd[dpos] = c.sd[spos]
		dpos += c.ds
		spos += c.ss
	}
}

// Slice returns a zero-copy view of t restricted to [start, end) along axis.
// The view keeps t's rank.
func (t *Tensor) Slice(axis, start, end int) *Tensor {
	if axis < 0 || axis >= len(t.shape) {
		panic(fmt.Sprintf("tensor: Slice axis %d out of range for rank %d", axis, len(t.shape)))
	}
	if start < 0 || end > t.shape[axis] || start > end {
		panic(fmt.Sprintf("tensor: Slice range [%d:%d) invalid for axis %d of size %d", start, end, axis, t.shape[axis]))
	}
	v := t.alias()
	v.shape[axis] = end - start
	v.offset += start * t.strides[axis]
	return v
}

// Index returns a zero-copy view selecting position i along axis, with that
// axis removed (rank decreases by one).
func (t *Tensor) Index(axis, i int) *Tensor {
	if axis < 0 || axis >= len(t.shape) {
		panic(fmt.Sprintf("tensor: Index axis %d out of range for rank %d", axis, len(t.shape)))
	}
	if i < 0 || i >= t.shape[axis] {
		panic(fmt.Sprintf("tensor: Index %d out of bounds for axis %d of size %d", i, axis, t.shape[axis]))
	}
	v := newHeader(t.data, t.offset+i*t.strides[axis], len(t.shape)-1)
	copy(v.shape, t.shape[:axis])
	copy(v.shape[axis:], t.shape[axis+1:])
	copy(v.strides, t.strides[:axis])
	copy(v.strides[axis:], t.strides[axis+1:])
	return v
}

// Transpose returns a zero-copy view with axes a and b exchanged.
func (t *Tensor) Transpose(a, b int) *Tensor {
	if a < 0 || a >= len(t.shape) || b < 0 || b >= len(t.shape) {
		panic(fmt.Sprintf("tensor: Transpose axes (%d,%d) out of range for rank %d", a, b, len(t.shape)))
	}
	v := t.alias()
	v.shape[a], v.shape[b] = v.shape[b], v.shape[a]
	v.strides[a], v.strides[b] = v.strides[b], v.strides[a]
	return v
}

// T returns the 2-D transpose view of a matrix.
func (t *Tensor) T() *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: T requires rank 2, got shape %v", t.shape))
	}
	return t.Transpose(0, 1)
}

// Reshape returns a tensor with the given shape and the same elements in
// row-major order. For contiguous tensors the result is a zero-copy view;
// otherwise the data is copied. One dimension may be -1 (inferred).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic(fmt.Sprintf("tensor: Reshape %v has multiple inferred dimensions", cloneInts(shape)))
			}
			infer = i
		} else {
			known *= d
		}
	}
	n := t.NumElements()
	inferred := 0
	if infer >= 0 {
		if known == 0 || n%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, cloneInts(shape)))
		}
		inferred = n / known
		known *= inferred
	}
	if known != n {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", cloneInts(shape), n))
	}
	src := t.Contiguous()
	out := withShape(src.data, src.offset, shape)
	if infer >= 0 {
		out.shape[infer] = inferred
		out.setContiguousStrides()
	}
	return out
}

// ReshapeLike is Reshape to o's shape.
func (t *Tensor) ReshapeLike(o *Tensor) *Tensor { return t.Reshape(o.shape...) }

// Unsqueeze inserts a size-1 dimension at axis.
func (t *Tensor) Unsqueeze(axis int) *Tensor {
	if axis < 0 || axis > len(t.shape) {
		panic(fmt.Sprintf("tensor: Unsqueeze axis %d out of range for rank %d", axis, len(t.shape)))
	}
	v := newHeader(t.data, t.offset, len(t.shape)+1)
	copy(v.shape, t.shape[:axis])
	v.shape[axis] = 1
	copy(v.shape[axis+1:], t.shape[axis:])
	copy(v.strides, t.strides[:axis])
	v.strides[axis] = 0
	copy(v.strides[axis+1:], t.strides[axis:])
	return v
}

// Equal reports exact element-wise equality of two same-shaped tensors.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	a := newIterator(t)
	b := newIterator(o)
	for a.next() && b.next() {
		if t.data[a.pos] != o.data[b.pos] {
			return false
		}
	}
	return true
}

// AllClose reports element-wise equality within absolute tolerance tol.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	a := newIterator(t)
	b := newIterator(o)
	for a.next() && b.next() {
		if math.Abs(t.data[a.pos]-o.data[b.pos]) > tol {
			return false
		}
	}
	return true
}

// iterator walks a tensor's elements in row-major logical order, yielding
// flat positions into the backing array.
type iterator struct {
	t       *Tensor
	idx     []int
	pos     int
	n       int
	count   int
	started bool
}

func newIterator(t *Tensor) *iterator {
	return &iterator{t: t, idx: make([]int, len(t.shape)), pos: t.offset, n: t.NumElements()}
}

func (it *iterator) next() bool {
	if it.count >= it.n {
		return false
	}
	if !it.started {
		it.started = true
		it.count++
		return true
	}
	t := it.t
	for d := len(t.shape) - 1; d >= 0; d-- {
		it.idx[d]++
		it.pos += t.strides[d]
		if it.idx[d] < t.shape[d] {
			it.count++
			return true
		}
		it.pos -= it.idx[d] * t.strides[d]
		it.idx[d] = 0
	}
	it.count++
	return true // rank-0 single element handled by count guard
}
