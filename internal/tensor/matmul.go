package tensor

import (
	"fmt"

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
func MatMul(a, b *Tensor) *Tensor {
	return matMul(a, b, matmulRowsTiled)
}

func matMul(a, b *Tensor, rows func(a, b, out []float64, lo, hi, k, n int)) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions disagree: %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	ac := a.Contiguous()
	bc := b.Contiguous()
	ad := ac.Data()
	bd := bc.Data()
	od := out.Data()

	grain := parallel.GrainFor(k*n, parallelThreshold)
	parallel.For(m, grain, func(lo, hi int) {
		rows(ad, bd, od, lo, hi, k, n)
	})
	return out
}

// matmulRows computes out[lo:hi] = a[lo:hi] @ b with an ikj loop order that
// streams b row-wise.
func matmulRows(a, b, out []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
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
// therefore the result — is bitwise identical to matmulRows. Rows wide
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

// MatMulNT returns a @ bᵀ for a [m,n] and b [k,n] ([m,k]), the input
// gradient of MatMul. It is MatMul(a, b.T().Contiguous()): one dense copy of
// bᵀ buys the row-streaming ikj product and its SIMD rows, where a dot
// product per output element would sum serially. The result is bitwise that
// product's.
func MatMulNT(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulNT requires [m,n] x [k,n], got %v and %v", a.shape, b.shape))
	}
	return MatMul(a, b.T().Contiguous())
}

// MatMulTN returns aᵀ @ g for a [m,k] and g [m,n] ([k,n]) without
// materializing the transpose: row i of a scatters row i of g into the
// output rows. Per output element the products are added in ascending i and
// a zero a[i,p] is skipped, so the result is bitwise identical to
// MatMul(a.T().Contiguous(), g). This is the weight gradient of MatMul.
func MatMulTN(a, g *Tensor) *Tensor {
	if len(a.shape) != 2 || len(g.shape) != 2 || a.shape[0] != g.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTN requires [m,k] x [m,n], got %v and %v", a.shape, g.shape))
	}
	m, k, n := a.shape[0], a.shape[1], g.shape[1]
	out := New(k, n)
	ad, gd, od := a.Contiguous().Data(), g.Contiguous().Data(), out.data
	grain := parallel.GrainFor(m*n, parallelThreshold)
	if UseSIMD(n) {
		parallel.For(k, grain, func(lo, hi int) {
			for i := 0; i < m; i++ {
				grow := gd[i*n : (i+1)*n]
				for p := lo; p < hi; p++ {
					if av := ad[i*k+p]; av != 0 {
						Axpy(av, grow, od[p*n:(p+1)*n])
					}
				}
			}
		})
		return out
	}
	parallel.For(k, grain, func(lo, hi int) {
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
	return out
}
