// Package sparse provides compressed-sparse-row matrices and the parallel
// sparse-dense products used by graph convolutions. Diffusion convolution
// multiplies random-walk transition matrices (derived from the sensor graph)
// against node-feature matrices; SpMM is the hot kernel.
package sparse

import (
	"fmt"
	"sort"
	"sync"

	"pgti/internal/parallel"
	"pgti/internal/tensor"
)

// CSR is a sparse matrix in compressed-sparse-row format.
type CSR struct {
	RowsN, ColsN int
	RowPtr       []int     // length RowsN+1
	ColIdx       []int     // length NNZ
	Val          []float64 // length NNZ

	// bounds memoizes the NNZ-balanced workRanges cuts per feature width:
	// recurrent models run hundreds of SpMMs per step against the same
	// (immutable, possibly goroutine-shared) support matrix, and the cuts
	// depend only on RowPtr and f. Mutating a CSR after its first kernel
	// call invalidates the memo silently — derive modified copies via
	// Clone/Scale/RowNormalize instead, as the rest of the code does. A
	// typed map under a mutex: a hit allocates nothing.
	boundsMu sync.Mutex
	bounds   map[boundsKey][]int

	// transposed is the matrix's transpose, built by the first Transposed
	// call. It hangs off the matrix so that it is collected with it.
	transposeOnce sync.Once
	transposed    *CSR
}

// boundsKey addresses one memoized set of NNZ-balanced cuts: the row range
// and the feature width (the full-matrix cuts use lo=0, hi=RowsN).
type boundsKey struct{ lo, hi, f int }

// Coord is a single (row, col, value) triplet for COO-style construction.
type Coord struct {
	Row, Col int
	Val      float64
}

// FromCOO builds a CSR matrix from coordinate triplets. Duplicate (row,col)
// entries are summed. Zero-valued entries are dropped.
func FromCOO(rows, cols int, entries []Coord) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of bounds for %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, sorted[i].Col)
			m.Val = append(m.Val, v)
			m.RowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// FromDense converts a dense rank-2 tensor to CSR, dropping exact zeros.
func FromDense(t *tensor.Tensor) *CSR {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("sparse: FromDense requires rank 2, got %v", t.Shape()))
	}
	rows, cols := t.Dim(0), t.Dim(1)
	m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := t.At(i, j); v != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{RowsN: n, ColsN: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// NumBytes returns the storage footprint of the CSR arrays in bytes,
// assuming 8-byte values and 8-byte indices (the accounting convention used
// throughout the memory model).
func (m *CSR) NumBytes() int64 {
	return int64(len(m.RowPtr)+len(m.ColIdx))*8 + int64(len(m.Val))*8
}

// At returns the value at (i, j), zero when not stored.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.RowsN || j < 0 || j >= m.ColsN {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of bounds for %dx%d", i, j, m.RowsN, m.ColsN))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// ToDense materializes the matrix as a dense tensor.
func (m *CSR) ToDense() *tensor.Tensor {
	out := tensor.New(m.RowsN, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.Set(m.Val[k], i, m.ColIdx[k])
		}
	}
	return out
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		RowsN:  m.RowsN,
		ColsN:  m.ColsN,
		RowPtr: make([]int, len(m.RowPtr)),
		ColIdx: make([]int, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// Transpose returns the transposed matrix in CSR form.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		RowsN:  m.ColsN,
		ColsN:  m.RowsN,
		RowPtr: make([]int, m.ColsN+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.ColsN; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, m.ColsN)
	copy(next, t.RowPtr[:m.ColsN])
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			t.ColIdx[next[c]] = i
			t.Val[next[c]] = m.Val[k]
			next[c]++
		}
	}
	return t
}

// Transposed returns the transpose of m, built once and shared by every
// caller (the backward pass of SpMM multiplies by it on every batch). Like m
// itself the result is read-only.
func (m *CSR) Transposed() *CSR {
	m.transposeOnce.Do(func() { m.transposed = m.Transpose() })
	return m.transposed
}

// RowSums returns the vector of per-row sums.
func (m *CSR) RowSums() []float64 {
	sums := make([]float64, m.RowsN)
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sums[i] += m.Val[k]
		}
	}
	return sums
}

// RowNormalize returns D^{-1} A: each row scaled to sum to one (rows with a
// zero sum are left zero). This is the random-walk transition matrix used by
// diffusion convolution.
func (m *CSR) RowNormalize() *CSR {
	out := m.Clone()
	sums := m.RowSums()
	for i := 0; i < out.RowsN; i++ {
		if sums[i] == 0 {
			continue
		}
		inv := 1 / sums[i]
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			out.Val[k] *= inv
		}
	}
	return out
}

// Scale returns a copy with every stored value multiplied by s.
func (m *CSR) Scale(s float64) *CSR {
	out := m.Clone()
	for i := range out.Val {
		out.Val[i] *= s
	}
	return out
}

// spmmParallelThreshold is the minimum work (nonzeros times feature columns)
// one parallel chunk of a sparse kernel carries; smaller products collapse
// to a single serial chunk.
const spmmParallelThreshold = 32 * 1024

// workRanges cuts the row space into chunks of roughly equal *nonzero* work
// (about spmmParallelThreshold multiply-adds per chunk at f feature columns),
// returning the row boundaries: chunk c covers rows [bounds[c], bounds[c+1]).
// Unlike a fixed row grain, the cuts follow the cumulative NNZ (RowPtr), so
// a skewed-degree shard cannot serialize the kernel on one fat row chunk —
// a dense row simply becomes its own chunk.
func (m *CSR) workRanges(f int) []int {
	if f < 1 {
		f = 1
	}
	return m.cachedRangeBounds(0, m.RowsN, f)
}

// cachedRangeBounds memoizes rangeWorkBounds per (range, f): the cuts
// depend only on the immutable RowPtr, and the kernels re-enter with the
// same few (range, f) pairs hundreds of times per training step.
func (m *CSR) cachedRangeBounds(lo, hi, f int) []int {
	key := boundsKey{lo, hi, f}
	m.boundsMu.Lock()
	defer m.boundsMu.Unlock()
	bounds, ok := m.bounds[key]
	if !ok {
		bounds = m.rangeWorkBounds(lo, hi, f)
		if m.bounds == nil {
			m.bounds = make(map[boundsKey][]int)
		}
		m.bounds[key] = bounds
	}
	return bounds
}

// rangeWorkBounds is workRanges restricted to the rows [lo, hi).
func (m *CSR) rangeWorkBounds(lo, hi, f int) []int {
	if f < 1 {
		f = 1
	}
	targetNNZ := spmmParallelThreshold / f
	if targetNNZ < 1 {
		targetNNZ = 1
	}
	bounds := []int{lo}
	for r := lo; r < hi; {
		// Find the first row whose inclusion brings the chunk to the target
		// work; RowPtr is the cumulative NNZ, so this is a binary search.
		next := sort.SearchInts(m.RowPtr[r+1:hi+1], m.RowPtr[r]+targetNNZ) + r + 1
		if next > hi {
			next = hi
		}
		bounds = append(bounds, next)
		r = next
	}
	if len(bounds) == 1 {
		bounds = append(bounds, lo)
	}
	return bounds
}

// SpMM computes the sparse-dense product m @ x for x of shape [ColsN, F],
// returning a dense [RowsN, F] tensor. NNZ-balanced row chunks fan out over
// the process worker pool for large products.
func (m *CSR) SpMM(x *tensor.Tensor) *tensor.Tensor {
	return m.SpMMInto(tensor.New(m.RowsN, x.Dim(x.Rank()-1)), x)
}

// SpMMInto writes m @ x into the contiguous [RowsN, F] dst and returns it.
func (m *CSR) SpMMInto(dst, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(0) != m.ColsN {
		panic(fmt.Sprintf("sparse: SpMM shape mismatch: %dx%d @ %v", m.RowsN, m.ColsN, x.Shape()))
	}
	m.SpMMRowRangeInto(0, m.RowsN, x, dst)
	return dst
}

// spmmRowSIMD computes row i of m @ x into the same row of od with
// tensor.Axpy, for widths tensor.UseSIMD admits: the row is cleared, then
// every stored entry is added in order, with no zero skipped. Every slice is
// cut by Go first, so a ColIdx outside x panics on its bounds check.
func (m *CSR) spmmRowSIMD(i int, xd, od []float64, f int) {
	orow := od[i*f : (i+1)*f]
	clear(orow)
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		c := m.ColIdx[k]
		tensor.Axpy(m.Val[k], xd[c*f:(c+1)*f], orow)
	}
}

// spmmRow is spmmRowSIMD's loop inline, for rows too narrow for Axpy.
func (m *CSR) spmmRow(i int, xd, od []float64, f int) {
	orow := od[i*f : (i+1)*f]
	clear(orow)
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		v := m.Val[k]
		xrow := xd[m.ColIdx[k]*f : (m.ColIdx[k]+1)*f]
		for j := range orow {
			orow[j] += v * xrow[j]
		}
	}
}

// SpMMRowsInto computes the given rows of m @ x into the [RowsN, F] output
// tensor out, overwriting them and leaving every other row of out untouched. x must cover every
// column the selected rows reference (it may be shorter than ColsN when the
// rows are known to touch only a prefix, e.g. the interior rows of a shard
// block whose columns all fall in the [own] segment). Each row's accumulation
// is the exact SpMM inner loop, so a partition of the row space computed via
// successive SpMMRowsInto calls is bitwise identical to one SpMM. Row chunks
// are NNZ-balanced over the worker pool.
func (m *CSR) SpMMRowsInto(rows []int, x *tensor.Tensor, out *tensor.Tensor) {
	m.spmmRows("SpMMRowsInto", rows, x, out, func(f int) []int { return m.rowListRanges(rows, f) })
}

// SpMMRowRangeInto is SpMMRowsInto over the contiguous row range [lo, hi) —
// the overlapped ShardSpMM backward uses it for the transposed block's own
// and halo row segments without materializing index lists.
func (m *CSR) SpMMRowRangeInto(lo, hi int, x *tensor.Tensor, out *tensor.Tensor) {
	if lo < 0 || hi < lo || hi > m.RowsN {
		panic(fmt.Sprintf("sparse: SpMMRowRangeInto rows [%d, %d) out of range for %d rows", lo, hi, m.RowsN))
	}
	m.spmmRows("SpMMRowRangeInto", nil, x, out, func(f int) []int { return m.cachedRangeBounds(lo, hi, f) })
}

// spmmRows runs the row kernel over the chunks cut(f) returns: chunk c
// covers the row numbers [bounds[c], bounds[c+1]), or those positions of
// rows when rows is not nil.
func (m *CSR) spmmRows(name string, rows []int, x, out *tensor.Tensor, cut func(f int) []int) {
	if x.Rank() != 2 || out.Rank() != 2 || out.Dim(0) != m.RowsN || out.Dim(1) != x.Dim(1) {
		panic(fmt.Sprintf("sparse: %s shape mismatch: %dx%d rows into %v from %v", name, m.RowsN, m.ColsN, out.Shape(), x.Shape()))
	}
	f := x.Dim(1)
	xd := x.Contiguous().Data()
	od := out.Data()
	bounds := cut(f)
	vec := tensor.UseSIMD(f)
	parallel.For(len(bounds)-1, 1, func(clo, chi int) {
		for ri := bounds[clo]; ri < bounds[chi]; ri++ {
			i := ri
			if rows != nil {
				i = rows[ri]
			}
			if vec {
				m.spmmRowSIMD(i, xd, od, f)
			} else {
				m.spmmRow(i, xd, od, f)
			}
		}
	})
}

// rowListRanges is workRanges over an explicit row list: NNZ-balanced cuts
// into the list, chunk c covering rows[bounds[c]:bounds[c+1]]. Unlike the
// range cuts it is not memoized — the O(len(rows)) scan is a few adds per
// row against the kernel's O(row NNZ * f) work, and the list identity is
// not a clean cache key.
func (m *CSR) rowListRanges(rows []int, f int) []int {
	if f < 1 {
		f = 1
	}
	targetNNZ := spmmParallelThreshold / f
	if targetNNZ < 1 {
		targetNNZ = 1
	}
	bounds := []int{0}
	acc := 0
	for ri, r := range rows {
		acc += m.RowPtr[r+1] - m.RowPtr[r]
		if acc >= targetNNZ {
			bounds = append(bounds, ri+1)
			acc = 0
		}
	}
	if bounds[len(bounds)-1] != len(rows) {
		bounds = append(bounds, len(rows))
	}
	return bounds
}

// MulVec computes the sparse matrix-vector product m @ v (SpMV), with
// NNZ-balanced row chunks fanned out over the worker pool for large
// matrices.
func (m *CSR) MulVec(v []float64) []float64 {
	if len(v) != m.ColsN {
		panic(fmt.Sprintf("sparse: MulVec length %d != cols %d", len(v), m.ColsN))
	}
	out := make([]float64, m.RowsN)
	bounds := m.workRanges(1)
	parallel.For(len(bounds)-1, 1, func(clo, chi int) {
		for i := bounds[clo]; i < bounds[chi]; i++ {
			var s float64
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				s += m.Val[k] * v[m.ColIdx[k]]
			}
			out[i] = s
		}
	})
	return out
}
