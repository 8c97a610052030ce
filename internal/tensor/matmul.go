package tensor

import (
	"fmt"
	"slices"

	"pgti/internal/parallel"
)

// parallelThreshold is the minimum amount of work (output elements times
// inner dimension, roughly flops/2) one parallel chunk of a matrix kernel
// carries. Small multiplies collapse to a single serial chunk.
const parallelThreshold = 16 * 1024

// Cache-blocking tile sizes: one [tileK, tileN] panel of b (128 KiB) stays
// resident while every row of the a block streams against it, so large
// products touch each b element once per row block instead of once per row.
// Multiplies whose whole b fits a panel degenerate to the naive loop order.
const (
	tileK = 64
	tileN = 256
)

// MatMul returns the matrix product a @ b for rank-2 tensors
// ([m,k] x [k,n] -> [m,n]). Large products fan out over the process worker
// pool by row blocks, each computed with the cache-blocked kernel. The
// result is bitwise identical to the naive ikj loop order: tiling ascends in
// both k and n, so every output element accumulates its k products in
// exactly the naive order, and rows wide enough for the SIMD axpy go through
// Axpy, which rounds each element as the scalar loop does.
func MatMul(a, b *Tensor) *Tensor { return MatMulInto(New(a.Dim(0), b.Dim(b.Rank()-1)), a, b) }

// MatMulInto writes a @ b into the contiguous [m,n] dst and returns it.
// dst's prior contents are never read: each output row is cleared just
// before its first product is added.
func MatMulInto(dst, a, b *Tensor) *Tensor { return matMul(dst, a, b, matmulRowsTiled) }

func matMul(dst, a, b *Tensor, rows func(a, b, out []float64, lo, hi, k, n int)) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions disagree: %v x %v", a.shape, b.shape))
	}
	ad, bd, od := a.Contiguous().Data(), b.Contiguous().Data(), dstData(dst, m, n)
	grain := parallel.GrainFor(k*n, parallelThreshold)
	parallel.For(m, grain, func(lo, hi int) {
		rows(ad, bd, od, lo, hi, k, n)
	})
	return dst
}

// dstData returns the elements of a destination that must be a contiguous
// tensor of the given shape.
func dstData(dst *Tensor, shape ...int) []float64 {
	if !dst.IsContiguous() || !slices.Equal(dst.shape, shape) {
		panic(fmt.Sprintf("tensor: destination %v is not a contiguous %v", dst.shape, cloneInts(shape)))
	}
	return dst.Data()
}

// matmulRows computes out[lo:hi] = a[lo:hi] @ b with an ikj loop order that
// streams b row-wise. Each row is cleared first: the zero skip may leave it
// untouched, and it accumulates from +0 exactly as a fresh row would.
func matmulRows(a, b, out []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		arow := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// matmulRowsTiled computes out[lo:hi] = a[lo:hi] @ b with cache blocking:
// the (pb, jb) tile of b is reused across every row of the block before the
// next tile is touched. For each output element the k index still ascends
// (tiles ascend, p ascends within a tile), so the accumulation order — and
// therefore the result — is bitwise identical to matmulRows; the first k
// tile clears each row segment before adding to it. Rows wide
// enough for the SIMD axpy take matmulRowsSIMD, the same loops around Axpy;
// narrower ones keep these, whose inner loop has no call to spill around.
func matmulRowsTiled(a, b, out []float64, lo, hi, k, n int) {
	if UseSIMD(n) {
		matmulRowsSIMD(a, b, out, lo, hi, k, n)
		return
	}
	if k <= tileK && n <= tileN {
		matmulRows(a, b, out, lo, hi, k, n)
		return
	}
	for pb := 0; pb < k; pb += tileK {
		pEnd := pb + tileK
		if pEnd > k {
			pEnd = k
		}
		for jb := 0; jb < n; jb += tileN {
			jEnd := jb + tileN
			if jEnd > n {
				jEnd = n
			}
			for i := lo; i < hi; i++ {
				orow := out[i*n+jb : i*n+jEnd]
				if pb == 0 {
					clear(orow)
				}
				arow := a[i*k : (i+1)*k]
				for p := pb; p < pEnd; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b[p*n+jb : p*n+jEnd]
					for j := range orow {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// matmulRowsSIMD is matmulRowsTiled's loop nest with each row update
// through Axpy. When b fits one tile it is matmulRows' loop order.
func matmulRowsSIMD(a, b, out []float64, lo, hi, k, n int) {
	for pb := 0; pb < k; pb += tileK {
		pEnd := min(pb+tileK, k)
		for jb := 0; jb < n; jb += tileN {
			jEnd := min(jb+tileN, n)
			for i := lo; i < hi; i++ {
				orow := out[i*n+jb : i*n+jEnd]
				if pb == 0 {
					clear(orow)
				}
				arow := a[i*k : (i+1)*k]
				for p := pb; p < pEnd; p++ {
					if av := arow[p]; av != 0 {
						Axpy(av, b[p*n+jb:p*n+jEnd], orow)
					}
				}
			}
		}
	}
}

// MatMulTNInto writes aᵀ @ g for a [m,k] and g [m,n] into the contiguous
// [k,n] dst without materializing the transpose, and returns it: row i of a
// scatters row i of g into the output rows. Each chunk of output rows is
// cleared before the first product lands; per output element the products
// are added in ascending i and a zero a[i,p] is skipped, so the result is
// bitwise identical to MatMul(a.T().Contiguous(), g). This is the weight
// gradient of MatMul.
func MatMulTNInto(dst, a, g *Tensor) *Tensor {
	if len(a.shape) != 2 || len(g.shape) != 2 || a.shape[0] != g.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTN requires [m,k] x [m,n], got %v and %v", a.shape, g.shape))
	}
	m, k, n := a.shape[0], a.shape[1], g.shape[1]
	ad, gd, od := a.Contiguous().Data(), g.Contiguous().Data(), dstData(dst, k, n)
	grain := parallel.GrainFor(m*n, parallelThreshold)
	if UseSIMD(n) {
		parallel.For(k, grain, func(lo, hi int) {
			clear(od[lo*n : hi*n])
			for i := 0; i < m; i++ {
				grow := gd[i*n : (i+1)*n]
				for p := lo; p < hi; p++ {
					if av := ad[i*k+p]; av != 0 {
						Axpy(av, grow, od[p*n:(p+1)*n])
					}
				}
			}
		})
		return dst
	}
	parallel.For(k, grain, func(lo, hi int) {
		clear(od[lo*n : hi*n])
		for i := 0; i < m; i++ {
			grow := gd[i*n : (i+1)*n]
			for p := lo; p < hi; p++ {
				av := ad[i*k+p]
				if av == 0 {
					continue
				}
				orow := od[p*n : (p+1)*n]
				for j, gv := range grow {
					orow[j] += av * gv
				}
			}
		}
	})
	return dst
}
