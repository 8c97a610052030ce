package tensor

import (
	"math"
	"testing"

	"pgti/internal/parallel"
	"testing/quick"
)

func TestMaxMinAxis(t *testing.T) {
	a := FromSlice([]float64{1, 5, 3, 4, 2, 6}, 2, 3)
	mx := a.Max(0)
	if mx.At(0) != 4 || mx.At(1) != 5 || mx.At(2) != 6 {
		t.Fatalf("Max(0) = %v", mx)
	}
	mn := a.Min(1)
	if mn.At(0) != 1 || mn.At(1) != 2 {
		t.Fatalf("Min(1) = %v", mn)
	}
}

func TestArgMax(t *testing.T) {
	a := FromSlice([]float64{0, 9, 2, 7, 1, 3}, 2, 3)
	am := a.ArgMax()
	if am[0] != 1 || am[1] != 0 {
		t.Fatalf("ArgMax = %v", am)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rank != 2")
		}
	}()
	New(3).ArgMax()
}

func TestClampPowLogNorm(t *testing.T) {
	a := FromSlice([]float64{-2, 0.5, 3}, 3)
	c := a.Clamp(-1, 1)
	if c.At(0) != -1 || c.At(1) != 0.5 || c.At(2) != 1 {
		t.Fatalf("Clamp = %v", c)
	}
	p := FromSlice([]float64{2, 3}, 2).Pow(2)
	if p.At(0) != 4 || p.At(1) != 9 {
		t.Fatalf("Pow = %v", p)
	}
	l := FromSlice([]float64{math.E}, 1).Log()
	if math.Abs(l.At(0)-1) > 1e-12 {
		t.Fatalf("Log = %v", l)
	}
	n := FromSlice([]float64{3, 4}, 2).Norm()
	if math.Abs(n-5) > 1e-12 {
		t.Fatalf("Norm = %v", n)
	}
}

func TestBMMSmall(t *testing.T) {
	a := FromSlice([]float64{
		1, 2, 3, 4, // batch 0: [[1,2],[3,4]]
		5, 6, 7, 8, // batch 1
	}, 2, 2, 2)
	b := FromSlice([]float64{
		1, 0, 0, 1, // identity
		2, 0, 0, 2, // 2*identity
	}, 2, 2, 2)
	c := BMM(a, b)
	if !c.Index(0, 0).Equal(a.Index(0, 0)) {
		t.Fatal("BMM with identity wrong")
	}
	if c.At(1, 0, 0) != 10 || c.At(1, 1, 1) != 16 {
		t.Fatalf("BMM scaled wrong: %v", c)
	}
}

func TestBMMMatchesLoopedMatMul(t *testing.T) {
	rng := NewRNG(9)
	a := Randn(rng, 5, 7, 4)
	b := Randn(rng, 5, 4, 6)
	c := BMM(a, b)
	for i := 0; i < 5; i++ {
		want := MatMul(a.Index(0, i), b.Index(0, i))
		if !c.Index(0, i).AllClose(want, 1e-12) {
			t.Fatalf("BMM batch %d disagrees with MatMul", i)
		}
	}
}

func TestBMMParallelPath(t *testing.T) {
	rng := NewRNG(10)
	// Big enough to take the parallel branch.
	a := Randn(rng, 8, 64, 32)
	b := Randn(rng, 8, 32, 64)
	c := BMM(a, b)
	want := MatMul(a.Index(0, 3), b.Index(0, 3))
	if !c.Index(0, 3).AllClose(want, 1e-10) {
		t.Fatal("parallel BMM wrong")
	}
}

func TestBMMShapePanics(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { BMM(New(2, 2), New(2, 2, 2)) })
	mustPanic(func() { BMM(New(2, 3, 4), New(3, 4, 5)) })
	mustPanic(func() { BMM(New(2, 3, 4), New(2, 5, 6)) })
}

// Property: Max(axis) dominates every slice element; Min is dominated.
func TestPropertyMaxMinDominance(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		m := int(mRaw%5) + 1
		n := int(nRaw%5) + 1
		a := Randn(NewRNG(seed), m, n)
		mx := a.Max(0)
		mn := a.Min(0)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if a.At(i, j) > mx.At(j) || a.At(i, j) < mn.At(j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulTiledBitwiseIdentical: the cache-blocked kernel must produce
// bit-for-bit the same product as the naive ikj loop order, across shapes
// that exercise partial tiles, multi-tile k/n, and the small-matrix
// degenerate path.
func TestMatMulTiledBitwiseIdentical(t *testing.T) {
	rng := NewRNG(41)
	shapes := [][3]int{
		{3, 5, 7},      // tiny: degenerates to the naive kernel
		{17, 64, 256},  // exact single tile
		{33, 65, 257},  // one past a tile boundary in k and n
		{8, 200, 700},  // multi-tile n, partial edges
		{130, 300, 90}, // multi-tile k, parallel row blocks
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := Randn(rng, m, k)
		// Plant exact zeros so the zero-skip path is exercised identically.
		a.Data()[0] = 0
		a.Data()[m*k-1] = 0
		b := Randn(rng, k, n)
		tiled := MatMul(a, b)
		naive := MatMulNaive(a, b)
		td, nd := tiled.Data(), naive.Data()
		for i := range td {
			if td[i] != nd[i] {
				t.Fatalf("[%d,%d]x[%d,%d]: element %d differs bitwise: %v vs %v", m, k, k, n, i, td[i], nd[i])
			}
		}
	}
}

// Cache-blocked vs naive MatMul at a size whose b matrix (1024x1024, 8 MiB)
// overflows L2: the tiled kernel reuses each [64,256] panel of b across the
// whole row block instead of streaming all of b per output row. The win is
// modest — the scalar Go kernel is FMA-bound, not bandwidth-bound — but the
// blocking keeps large products from thrashing once k*n outgrows the cache.
// Serial width isolates the cache effect from the pool.
func benchMatMul1024(b *testing.B, mul func(a, b *Tensor) *Tensor) {
	rng := NewRNG(2)
	x := Randn(rng, 1024, 1024)
	y := Randn(rng, 1024, 1024)
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(x, y)
	}
}

func BenchmarkMatMulNaiveSerial1024(b *testing.B) { benchMatMul1024(b, MatMulNaive) }
func BenchmarkMatMulTiledSerial1024(b *testing.B) { benchMatMul1024(b, MatMul) }
