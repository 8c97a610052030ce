package sparse

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pgti/internal/parallel"
	"pgti/internal/tensor"
)

func denseFrom(rows, cols int, vals ...float64) *tensor.Tensor {
	return tensor.FromSlice(vals, rows, cols)
}

func TestFromCOOAndAt(t *testing.T) {
	m, err := FromCOO(3, 3, []Coord{{0, 1, 2}, {2, 0, 5}, {1, 1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(2, 0) != 5 || m.At(1, 1) != -1 || m.At(0, 0) != 0 {
		t.Fatal("At values wrong")
	}
}

func TestFromCOODuplicatesSummedZerosDropped(t *testing.T) {
	m, err := FromCOO(2, 2, []Coord{{0, 0, 1}, {0, 0, 2}, {1, 1, 3}, {1, 1, -3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3 {
		t.Fatalf("duplicate sum wrong: %v", m.At(0, 0))
	}
	if m.NNZ() != 1 {
		t.Fatalf("zero-sum entry must be dropped, NNZ = %d", m.NNZ())
	}
}

func TestFromCOOBoundsError(t *testing.T) {
	if _, err := FromCOO(2, 2, []Coord{{2, 0, 1}}); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	d := denseFrom(2, 3, 0, 1, 0, 2, 0, 3)
	m := FromDense(d)
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if !m.ToDense().Equal(d) {
		t.Fatal("round trip failed")
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	x := tensor.Randn(tensor.NewRNG(1), 4, 3)
	if !m.SpMM(x).AllClose(x, 1e-15) {
		t.Fatal("I @ x != x")
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := tensor.Randn(rng, 6, 5)
	// Sparsify.
	d.ApplyInPlace(func(v float64) float64 {
		if math.Abs(v) < 0.7 {
			return 0
		}
		return v
	})
	m := FromDense(d)
	x := tensor.Randn(rng, 5, 4)
	want := tensor.MatMul(d, x)
	got := m.SpMM(x)
	if !got.AllClose(want, 1e-12) {
		t.Fatal("SpMM disagrees with dense MatMul")
	}
}

func TestSpMMParallelPath(t *testing.T) {
	rng := tensor.NewRNG(3)
	n, f := 300, 64 // nnz*f comfortably above the parallel threshold
	var entries []Coord
	for i := 0; i < n; i++ {
		for k := 0; k < 8; k++ {
			entries = append(entries, Coord{Row: i, Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
	}
	m, err := FromCOO(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, n, f)
	got := m.SpMM(x)
	want := tensor.MatMul(m.ToDense(), x)
	if !got.AllClose(want, 1e-9) {
		t.Fatal("parallel SpMM disagrees with dense reference")
	}
}

func TestSpMMShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Identity(3).SpMM(tensor.New(4, 2))
}

func TestTranspose(t *testing.T) {
	d := denseFrom(2, 3, 1, 0, 2, 0, 3, 0)
	mt := FromDense(d).Transpose()
	if mt.RowsN != 3 || mt.ColsN != 2 {
		t.Fatalf("transpose dims %dx%d", mt.RowsN, mt.ColsN)
	}
	if !mt.ToDense().Equal(d.T().Contiguous()) {
		t.Fatal("transpose content wrong")
	}
}

func TestRowNormalize(t *testing.T) {
	d := denseFrom(3, 3,
		2, 2, 0,
		0, 0, 0, // zero row stays zero
		1, 1, 2)
	m := FromDense(d).RowNormalize()
	sums := m.RowSums()
	if math.Abs(sums[0]-1) > 1e-15 || sums[1] != 0 || math.Abs(sums[2]-1) > 1e-15 {
		t.Fatalf("row sums after normalize: %v", sums)
	}
	if m.At(2, 2) != 0.5 {
		t.Fatalf("normalized value wrong: %v", m.At(2, 2))
	}
}

func TestMulVec(t *testing.T) {
	d := denseFrom(2, 3, 1, 2, 3, 4, 5, 6)
	m := FromDense(d)
	got := m.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec wrong: %v", got)
	}
}

func TestScaleAndClone(t *testing.T) {
	m := FromDense(denseFrom(2, 2, 1, 0, 0, 2))
	s := m.Scale(3)
	if s.At(1, 1) != 6 || m.At(1, 1) != 2 {
		t.Fatal("Scale must not mutate the receiver")
	}
	c := m.Clone()
	c.Val[0] = 99
	if m.Val[0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestNumBytes(t *testing.T) {
	m := Identity(10)
	want := int64(11+10)*8 + int64(10)*8
	if m.NumBytes() != want {
		t.Fatalf("NumBytes = %d want %d", m.NumBytes(), want)
	}
}

// Property: (A^T)^T = A and SpMM(A, I) recovers A for random sparse matrices.
func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		rng := tensor.NewRNG(seed)
		var entries []Coord
		for i := 0; i < n*2; i++ {
			entries = append(entries, Coord{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
		m, err := FromCOO(n, n, entries)
		if err != nil {
			return false
		}
		tt := m.Transpose().Transpose()
		if !tt.ToDense().AllClose(m.ToDense(), 1e-12) {
			return false
		}
		eye := tensor.New(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		return m.SpMM(eye).AllClose(m.ToDense(), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: row-normalized matrices have row sums in {0, 1}.
func TestPropertyRowNormalizeSums(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		rng := tensor.NewRNG(seed)
		var entries []Coord
		for i := 0; i < n*3; i++ {
			entries = append(entries, Coord{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Float64() + 0.01})
		}
		m, err := FromCOO(n, n, entries)
		if err != nil {
			return false
		}
		for _, s := range m.RowNormalize().RowSums() {
			if s != 0 && math.Abs(s-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkRangesSkewedDegrees: the NNZ-aware chunking must isolate a dense
// row instead of serializing the kernel on one fat row-count chunk, keep
// every cut aligned with the cumulative-NNZ target, and leave results
// identical to the serial product.
func TestWorkRangesSkewedDegrees(t *testing.T) {
	// One pathological row holding ~all the nonzeros plus a long sparse tail.
	n := 2000
	var entries []Coord
	for j := 0; j < n; j++ {
		entries = append(entries, Coord{Row: 0, Col: j, Val: 1 + float64(j)})
	}
	for i := 1; i < n; i++ {
		entries = append(entries, Coord{Row: i, Col: (i * 7) % n, Val: float64(i)})
	}
	m, err := FromCOO(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	f := 64
	bounds := m.workRanges(f)
	if len(bounds) < 3 {
		t.Fatalf("skewed matrix produced %d chunks, want several: %v", len(bounds), bounds)
	}
	// The fat row must be cut off on its own: with f=64 the target NNZ per
	// chunk is 512, and row 0 alone carries 2000.
	if bounds[1] != 1 {
		t.Fatalf("fat row not isolated: first cut at %d", bounds[1])
	}
	// Chunks tile [0, n) in order.
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		t.Fatalf("bounds do not tile the row space: %v ... %v", bounds[0], bounds[len(bounds)-1])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, bounds[i])
		}
	}
	// Every interior chunk reaches the work target (the final chunk may be
	// a remainder), and no chunk exceeds target+1 rows' worth of overshoot.
	target := spmmParallelThreshold / f
	for i := 1; i < len(bounds)-1; i++ {
		nnz := m.RowPtr[bounds[i]] - m.RowPtr[bounds[i-1]]
		if nnz < target && bounds[i]-bounds[i-1] > 1 {
			t.Fatalf("interior chunk %d has %d nnz below target %d", i, nnz, target)
		}
	}
	// Parallel result equals serial.
	x := tensor.Randn(tensor.NewRNG(9), n, f)
	got := m.SpMM(x)
	prev := parallel.SetWorkers(1)
	serial := m.SpMM(x)
	parallel.SetWorkers(prev)
	gd, sd := got.Data(), serial.Data()
	for i := range gd {
		if gd[i] != sd[i] {
			t.Fatalf("parallel SpMM differs from serial at %d", i)
		}
	}
}

// TestWorkRangesMemoIsAllocationFree: the kernels look their cuts up on
// every call, so a hit must not allocate (the memo's key is three ints; a
// sync.Map boxed it into an interface each time), must return the same cuts
// the uncached computation does, and must serve concurrent callers.
func TestWorkRangesMemoIsAllocationFree(t *testing.T) {
	m := Identity(500).Scale(2)
	for _, f := range []int{1, 8, 64, 4096} {
		want := m.rangeWorkBounds(0, m.RowsN, f)
		got := m.workRanges(f)
		if len(got) != len(want) {
			t.Fatalf("f=%d: memoized cuts %v, computed %v", f, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("f=%d: memoized cuts %v, computed %v", f, got, want)
			}
		}
	}
	m.cachedRangeBounds(100, 400, 8)
	if n := testing.AllocsPerRun(100, func() {
		m.workRanges(8)
		m.cachedRangeBounds(100, 400, 8)
	}); n != 0 {
		t.Fatalf("memoized work-range lookups allocate %v times", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 1; f < 50; f++ {
				if b := m.workRanges(f + g); b[0] != 0 || b[len(b)-1] != m.RowsN {
					t.Errorf("f=%d: cuts %v do not tile the rows", f+g, b)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTransposedIsBuiltOnce: Transposed is Transpose, computed once and
// shared.
func TestTransposedIsBuiltOnce(t *testing.T) {
	m, err := FromCOO(3, 4, []Coord{{0, 1, 2}, {0, 3, -1}, {2, 0, 5}, {2, 3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	mt := m.Transposed()
	if mt != m.Transposed() {
		t.Fatal("Transposed rebuilt the transpose")
	}
	if !mt.ToDense().Equal(m.Transpose().ToDense()) || !mt.ToDense().Equal(m.ToDense().T()) {
		t.Fatalf("Transposed = %v", mt.ToDense())
	}
}
