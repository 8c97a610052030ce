package tensor

import (
	"fmt"
	"math"
	"testing"

	"pgti/internal/parallel"
)

// The assembly axpy must round every element as the Go loop does (product,
// then sum; no FMA), touch nothing past len(y), and leave the kernels built
// on it bitwise equal to MatMulNaive, the oracle.
//
// Bitwise means every bit of every value that is not NaN. Where two NaNs
// meet, the hardware returns the first operand's payload, and the Go compiler
// orders the operands of a commutative add as it likes: two Go loops over
// the same expression already disagree there. sameFloat therefore lets any
// NaN stand for any NaN; a NaN against a number still fails.

// sameFloat reports whether x and y have the same bits or are both NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// sameValues is sameBits up to NaN payloads (see sameFloat).
func sameValues(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ai, bi := newIterator(a), newIterator(b)
	for ai.next() && bi.next() {
		if !sameFloat(a.data[ai.pos], b.data[bi.pos]) {
			return false
		}
	}
	return true
}

// withoutSIMD runs fn with the assembly switched off, so every kernel takes
// its Go loop.
func withoutSIMD(fn func()) {
	saved := simd
	simd = false
	defer func() { simd = saved }()
	fn()
}

// special holds the values where two roundings, lane order or a fused
// multiply-add would show: signed zeros, infinities, NaNs with distinct
// payloads, subnormals and values whose product rounds.
var special = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff4_0000_0000_0001),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1022 / 3,
	math.MaxFloat64, 1 + 0x1p-52, 1.0 / 3, -2.5,
}

func TestAxpyMatchesScalarLoopBitwise(t *testing.T) {
	const sentinel = -12345.678
	rng := NewRNG(601)
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	for _, a := range append([]float64{rng.NormFloat64(), 1.5}, special...) {
		for n := 0; n <= 67; n++ {
			for xo := 0; xo < 4; xo++ {
				for yo := 0; yo < 4; yo++ {
					xbuf, ybuf := make([]float64, xo+n), make([]float64, yo+n+4)
					for i := range xbuf {
						xbuf[i] = pick()
					}
					for i := range ybuf {
						ybuf[i] = pick()
					}
					for i := yo + n; i < len(ybuf); i++ {
						ybuf[i] = sentinel
					}
					x, y := xbuf[xo:], ybuf[yo:yo+n]
					want := append([]float64{}, y...)
					for j := range want {
						want[j] += a * x[j]
					}
					Axpy(a, x, y)
					for j := range want {
						if !sameFloat(y[j], want[j]) {
							t.Fatalf("a=%v n=%d offsets %d/%d: y[%d] = %v (%#x), want %v (%#x)", a, n, xo, yo, j, y[j], math.Float64bits(y[j]), want[j], math.Float64bits(want[j]))
						}
					}
					for i := yo + n; i < len(ybuf); i++ {
						if ybuf[i] != sentinel {
							t.Fatalf("a=%v n=%d offsets %d/%d: wrote past len(y) at %d", a, n, xo, yo, i-yo)
						}
					}
				}
			}
		}
	}
}

func TestAxpyShortXPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy with len(x) < len(y) did not panic")
		}
	}()
	Axpy(2, make([]float64, 31), make([]float64, 32))
}

// sprinkle overwrites about one element in six of t with a special value.
func sprinkle(rng *RNG, t *Tensor) *Tensor {
	for i := range t.data {
		if rng.Intn(6) == 0 {
			t.data[i] = special[rng.Intn(len(special))]
		}
	}
	return t
}

func TestMatMulKernelsMatchOracleBitwise(t *testing.T) {
	rng := NewRNG(602)
	type shape struct{ m, k, n int }
	shapes := []shape{
		{176, 90, 32}, {176, 32, 90}, {90, 176, 32}, // fit-index: forward, and the two backward products' outputs
		{5, 7, axpyMinWidth - 1}, {5, 7, axpyMinWidth}, {5, 7, axpyMinWidth + 1},
		{3, tileK - 1, 20}, {3, tileK, 20}, {3, tileK + 1, 20},
		{4, 9, tileN - 1}, {4, 9, tileN}, {4, 9, tileN + 1}, {2, tileK + 3, tileN + 5},
		{1, 1, 1}, {3, 4, 8},
	}
	for _, s := range shapes {
		a := sprinkle(rng, Randn(rng, s.m, s.k))
		b := sprinkle(rng, Randn(rng, s.k, s.n))
		bt := b.T().Contiguous() // [n, k]: MatMulNT(a, bt) = a @ b
		g := sprinkle(rng, Randn(rng, s.m, s.n))
		want := MatMulNaive(a, b)
		wantTN := MatMulNaive(a.T().Contiguous(), g)
		check := func(path string) {
			if got := MatMul(a, b); !sameValues(got, want) {
				t.Fatalf("%s MatMul [%d,%d]x[%d,%d] differs from MatMulNaive", path, s.m, s.k, s.k, s.n)
			}
			if got := MatMulNT(a, bt); !sameValues(got, want) {
				t.Fatalf("%s MatMulNT [%d,%d]x[%d,%d]ᵀ differs from MatMulNaive", path, s.m, s.k, s.n, s.k)
			}
			if got := MatMulTN(a, g); !sameValues(got, wantTN) {
				t.Fatalf("%s MatMulTN [%d,%d]ᵀx[%d,%d] differs from MatMulNaive", path, s.m, s.k, s.m, s.n)
			}
		}
		check("simd")
		withoutSIMD(func() { check("go") })
		// A wider pool cuts the rows differently; no element may notice.
		func() {
			defer parallel.SetWorkers(parallel.SetWorkers(3))
			check("3 workers")
		}()
	}
}

func TestAxpyInPlaceMatchesGoPathBitwise(t *testing.T) {
	rng := NewRNG(603)
	for _, n := range []int{1, axpyMinWidth - 1, axpyMinWidth, 67, 3 * elemGrain} {
		o := sprinkle(rng, Randn(rng, n))
		base := sprinkle(rng, Randn(rng, n))
		for _, alpha := range []float64{-0.01, 0, math.Inf(1)} {
			got, want := base.Clone(), base.Clone()
			got.AxpyInPlace(alpha, o)
			withoutSIMD(func() { want.AxpyInPlace(alpha, o) })
			if !sameValues(got, want) {
				t.Fatalf("AxpyInPlace n=%d alpha=%v differs from the Go loop", n, alpha)
			}
		}
	}
}

// TestMatMulTNAllocatesOnlyItsOutput: with one worker and one chunk the
// weight gradient allocates its [k,n] output (header and elements) and the
// chunk closure, on either path; the assembly call adds nothing.
func TestMatMulTNAllocatesOnlyItsOutput(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	rng := NewRNG(604)
	a, g := Randn(rng, 16, 32), Randn(rng, 16, 32) // 16·32·32 = one chunk's work
	output := testing.AllocsPerRun(20, func() { New(32, 32) })
	for _, path := range []string{"simd", "go"} {
		var got float64
		run := func() { got = testing.AllocsPerRun(20, func() { MatMulTN(a, g) }) }
		if path == "go" {
			withoutSIMD(run)
		} else {
			run()
		}
		if got != output+1 {
			t.Errorf("%s: MatMulTN makes %v allocations, want %v (output) + 1 (chunk closure)", path, got, output)
		}
	}
}

// BenchmarkAxpyWidth picks axpyMinWidth: the ikj row loop of MatMul at one
// output width, its rows through the inline Go loop and through Axpy.
func BenchmarkAxpyWidth(b *testing.B) {
	const m, k = 256, 16
	rng := NewRNG(605)
	for _, w := range []int{4, 8, 12, 16, 24, 32, 64} {
		a, bm, out := Randn(rng, m, k).data, Randn(rng, k, w).data, make([]float64, m*w)
		for _, vec := range []bool{false, true} {
			b.Run(fmt.Sprintf("w=%d/simd=%v", w, vec), func(b *testing.B) {
				for b.Loop() {
					for i := 0; i < m; i++ {
						orow := out[i*w : (i+1)*w]
						for p, av := range a[i*k : (i+1)*k] {
							brow := bm[p*w : (p+1)*w]
							if vec {
								Axpy(av, brow, orow)
								continue
							}
							for j := range orow {
								orow[j] += av * brow[j]
							}
						}
					}
				}
			})
		}
	}
}
