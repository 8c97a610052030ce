package tensor

import (
	"math"
	"testing"
)

// TestArenaReuse: a cycle of the shapes the last one asked for allocates
// nothing, hands out the same storage again, keeps each tensor's elements
// apart from the next one's, and gives views of arena storage arena
// headers.
func TestArenaReuse(t *testing.T) {
	var a Arena
	like := New(2, 2, 7)
	cycle := func() (*Tensor, *Tensor) {
		a.Reset()
		x, y := a.New(3, 5), a.ZerosLike(like)
		x.Fill(1)
		return x, y
	}
	cycle()
	if got := testing.AllocsPerRun(10, func() { cycle() }); got != 0 {
		t.Fatalf("a warm cycle makes %.0f allocations", got)
	}
	x, y := cycle()
	xd := &x.Data()[0]
	if x2, _ := cycle(); &x2.Data()[0] != xd {
		t.Fatal("a warm cycle does not reuse its slab")
	}
	x, y = cycle()
	if y.SumAll() != 0 || x.SumAll() != 15 || cap(x.data) != 15 || !x.SpansStorage() {
		t.Fatalf("arena tensors overlap or are not dense: x %v, y %v", x, y)
	}
	if v := x.Slice(0, 1, 2).Reshape(5); v.arena != &a || x.T().arena != &a || y.Index(0, 1).arena != &a {
		t.Fatal("a view of arena storage has a heap header")
	}
	if c := x.Clone(); c.arena != nil {
		t.Fatal("a Clone of arena storage is in the arena")
	}
}

// TestArenaNilIsHeap: the nil arena hands out ordinary zero-filled heap
// tensors and its Reset does nothing.
func TestArenaNilIsHeap(t *testing.T) {
	var a *Arena
	a.Reset()
	x := a.New(2, 3)
	if x.arena != nil || x.SumAll() != 0 {
		t.Fatalf("nil arena tensor %v", x)
	}
	strided := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3).T()
	if c := a.Contiguous(strided); !c.IsContiguous() || !c.Equal(strided) {
		t.Fatal("nil arena Contiguous")
	}
}

// TestArenaPoison: under the arenapoison tag, storage from New is NaN and a
// Reset poisons what the last cycle handed out; ZerosLike is zero either way.
func TestArenaPoison(t *testing.T) {
	if !poison {
		t.Skip("needs -tags arenapoison")
	}
	var a Arena
	if x := a.New(4); !math.IsNaN(x.Data()[0]) {
		t.Fatalf("uninitialised storage %v, want NaN", x)
	}
	a.Reset()
	y := a.ZerosLike(New(4)).Data()
	y[0] = 2
	a.Reset()
	if !math.IsNaN(y[0]) || a.ZerosLike(New(4)).SumAll() != 0 {
		t.Fatal("Reset did not poison the slab, or ZerosLike is not zero")
	}
}

// TestIntoIgnoresDestination: every destination form writes the allocating
// form's result bit for bit into a destination full of NaN, through the
// SIMD and the Go loops: no kernel reads what its destination held.
func TestIntoIgnoresDestination(t *testing.T) {
	rng := NewRNG(9)
	a, b := Randn(rng, 5, 12), Randn(rng, 12, 9)
	g := Randn(rng, 5, 9)
	a.Data()[3] = 0 // the matrix products skip a zero
	x3, y3 := Randn(rng, 2, 5, 12), Randn(rng, 2, 12, 9)
	add := func(u, v float64) float64 { return u + v }
	nan := func(shape ...int) *Tensor {
		d := New(shape...)
		d.Fill(math.NaN())
		return d
	}
	check := func(path string) {
		for name, pair := range map[string][2]*Tensor{
			"MatMul":   {MatMulInto(nan(5, 9), a, b), MatMul(a, b)},
			"MatMulTN": {MatMulTNInto(nan(12, 9), a, g), MatMulTN(a, g)},
			"BMM":      {BMMInto(nan(2, 5, 9), x3, y3), BMM(x3, y3)},
			"Binary":   {BinaryInto(nan(5, 9), g, Randn(NewRNG(1), 9), add), Binary(g, Randn(NewRNG(1), 9), add)},
			"Apply":    {a.T().ApplyInto(nan(12, 5), math.Abs), a.T().Apply(math.Abs)},
			"Concat":   {ConcatInto(nan(5, 21), 1, g, a), Concat(1, g, a)},
			"Stack":    {StackInto(nan(5, 2, 9), 1, g, g), Stack(1, g, g)},
			"Sum":      {x3.SumInto(nan(2, 12), 1), x3.Sum(1)},
			"SumT":     {x3.Transpose(0, 2).SumInto(nan(12, 2), 1), x3.Transpose(0, 2).Sum(1)},
		} {
			if !sameBits(pair[0], pair[1]) {
				t.Fatalf("%s %sInto into NaN: %v, want %v", path, name, pair[0], pair[1])
			}
		}
	}
	check("default")
	withoutSIMD(func() { check("Go loops") })
}
