package sparse

import (
	"fmt"
	"math"
	"testing"

	"pgti/internal/parallel"
	"pgti/internal/tensor"
)

// The three SpMM entries run their rows through tensor.Axpy from
// tensor.UseSIMD(f) on; below that width, and without the assembly, through
// the inline loop. Either way each output row must equal the scalar loop
// over the row's nonzeros in storage order, bit for bit (any NaN standing
// for any NaN: the payload where two NaNs meet is not fixed even between two
// Go loops).

// spmmReference is the scalar SpMM: every stored value, zeros included, in
// storage order.
func spmmReference(m *CSR, x *tensor.Tensor) *tensor.Tensor {
	f := x.Dim(1)
	out := tensor.New(m.RowsN, f)
	xd, od := x.Contiguous().Data(), out.Data()
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			v, c := m.Val[k], m.ColIdx[k]
			for j := 0; j < f; j++ {
				od[i*f+j] += v * xd[c*f+j]
			}
		}
	}
	return out
}

func sameValues(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Contiguous().Data(), b.Contiguous().Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) && !(ad[i] != ad[i] && bd[i] != bd[i]) {
			return false
		}
	}
	return true
}

// randomCSR builds a rows x cols matrix with about deg stored entries per
// row, some of them exact zeros (which SpMM does not skip) and some special
// values, the rest normal.
func randomCSR(rng *tensor.RNG, rows, cols, deg int) *CSR {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64, 1.0 / 3}
	m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		n := rng.Intn(2 * deg)
		for _, c := range rng.Perm(cols)[:min(n, cols)] {
			v := rng.NormFloat64()
			if rng.Intn(8) == 0 {
				v = special[rng.Intn(len(special))]
			}
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

func TestSpMMEntriesMatchScalarReferenceBitwise(t *testing.T) {
	rng := tensor.NewRNG(701)
	for _, c := range []struct{ rows, cols, deg int }{{40, 30, 4}, {300, 300, 8}} {
		m := randomCSR(rng, c.rows, c.cols, c.deg)
		for _, f := range []int{1, 7, 8, 9, 16, 33, 144} {
			x := tensor.Randn(rng, c.cols, f)
			x.Set(math.Inf(-1), rng.Intn(c.cols), rng.Intn(f))
			want := spmmReference(m, x)
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%dx%d f=%d workers=%d", c.rows, c.cols, f, workers)
				func() {
					defer parallel.SetWorkers(parallel.SetWorkers(workers))
					if got := m.SpMM(x); !sameValues(got, want) {
						t.Fatalf("%s: SpMM differs from the scalar loop", name)
					}
					// The destination forms never read what dst held.
					nan := func() *tensor.Tensor {
						d := tensor.New(c.rows, f)
						d.Fill(math.NaN())
						return d
					}
					if got := m.SpMMInto(nan(), x); !sameValues(got, want) {
						t.Fatalf("%s: SpMMInto over NaN differs from the scalar loop", name)
					}
					// Even rows then odd rows, as an interior/frontier split.
					var even, odd []int
					for i := 0; i < c.rows; i++ {
						if i%2 == 0 {
							even = append(even, i)
						} else {
							odd = append(odd, i)
						}
					}
					rows := nan()
					m.SpMMRowsInto(odd, x, rows)
					m.SpMMRowsInto(even, x, rows)
					if !sameValues(rows, want) {
						t.Fatalf("%s: SpMMRowsInto differs from the scalar loop", name)
					}
					cut := c.rows / 3
					ranged := nan()
					m.SpMMRowRangeInto(cut, c.rows, x, ranged)
					m.SpMMRowRangeInto(0, cut, x, ranged)
					if !sameValues(ranged, want) {
						t.Fatalf("%s: SpMMRowRangeInto differs from the scalar loop", name)
					}
				}()
			}
		}
	}
}

// TestSpMMOutOfRangeColumnPanics: a malformed CSR must fail on Go's bounds
// check, on the inline path and on the assembly path, never read past x.
func TestSpMMOutOfRangeColumnPanics(t *testing.T) {
	for _, col := range []int{3, -1} {
		m := &CSR{RowsN: 2, ColsN: 3, RowPtr: []int{0, 1, 2}, ColIdx: []int{0, col}, Val: []float64{1, 2}}
		for _, f := range []int{4, 32} {
			x := tensor.Randn(tensor.NewRNG(702), 3, f)
			for name, call := range map[string]func(){
				"SpMM":             func() { m.SpMM(x) },
				"SpMMRowsInto":     func() { m.SpMMRowsInto([]int{1}, x, tensor.New(2, f)) },
				"SpMMRowRangeInto": func() { m.SpMMRowRangeInto(0, 2, x, tensor.New(2, f)) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s with ColIdx %d, f=%d did not panic", name, col, f)
						}
					}()
					call()
				}()
			}
		}
	}
}

// TestSpMMAllocatesOnlyItsOutput: with one worker and one chunk, SpMM
// allocates its output (header and elements) and the chunk closure; the row
// kernel adds nothing.
func TestSpMMAllocatesOnlyItsOutput(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	m := randomCSR(tensor.NewRNG(703), 22, 22, 3)
	for _, f := range []int{4, 144} {
		x := tensor.Randn(tensor.NewRNG(704), 22, f)
		output := testing.AllocsPerRun(20, func() { tensor.New(22, f) })
		if got := testing.AllocsPerRun(20, func() { m.SpMM(x) }); got != output+1 {
			t.Errorf("f=%d: SpMM makes %v allocations, want %v (output) + 1 (chunk closure)", f, got, output)
		}
	}
}
