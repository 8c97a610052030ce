package tensor

import (
	"math"
	"testing"
)

// The direct kernels (Sum over a contiguous axis, copyStrided, MatMulNT,
// MatMulTN, the in-place fast paths) must agree bitwise with the generic
// paths they bypass: every pinned training curve rides on that.

// randomViews returns base (a fresh random tensor of a random shape of the
// given rank) followed by views of it that between them cover every layout
// the kernels distinguish: sliced, offset, transposed, permuted, stride-0
// broadcast and rank-reduced.
func randomViews(rng *RNG, rank int) []*Tensor {
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = 1 + rng.Intn(4)
	}
	base := Randn(rng, shape...)
	// A sprinkling of exact zeros and negative zeros: 0 + (-0) is where a
	// kernel that seeds its sum with the first element would differ.
	for i := range base.data {
		switch rng.Intn(8) {
		case 0:
			base.data[i] = 0
		case 1:
			base.data[i] = math.Copysign(0, -1)
		}
	}
	views := []*Tensor{base}
	if rank == 0 {
		return append(views, base.Unsqueeze(0).BroadcastTo(3))
	}
	for axis := 0; axis < rank; axis++ {
		d := shape[axis]
		lo := rng.Intn(d)
		views = append(views,
			base.Slice(axis, lo, lo+1+rng.Intn(d-lo)), // sliced, offset
			base.Slice(axis, lo, lo),                  // empty
			base.Index(axis, lo),                      // rank-reduced, offset
			base.Transpose(axis, rng.Intn(rank)),
			base.Unsqueeze(axis).BroadcastTo(insertDim(shape, axis, 3)...), // stride 0
		)
	}
	views = append(views, base.Permute(rng.Perm(rank)...))
	// Views of views: a permuted slice of a wider parent, and its reshape
	// (a copy through copyStrided when the slice is not dense).
	wide := Randn(rng, insertDim(shape, rank, 5)...)
	inner := wide.Slice(rank, 1, 4).Permute(rng.Perm(rank + 1)...)
	return append(views, inner, inner.Reshape(-1))
}

func insertDim(shape []int, axis, size int) []int {
	out := append([]int{}, shape[:axis]...)
	out = append(out, size)
	return append(out, shape[axis:]...)
}

// sameBits reports whether a and b have the same shape and bit-identical
// elements (distinguishing -0 from 0 and comparing NaN payloads).
func sameBits(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ai, bi := newIterator(a), newIterator(b)
	for ai.next() && bi.next() {
		if math.Float64bits(a.data[ai.pos]) != math.Float64bits(b.data[bi.pos]) {
			return false
		}
	}
	return true
}

// sumReference is the retained generic reduction: one Index view and one
// broadcasting AddInPlace per position along axis.
func sumReference(t *Tensor, axis int) *Tensor {
	out := t.zerosWithoutAxis(axis)
	for i := 0; i < t.shape[axis]; i++ {
		out.AddInPlace(t.Index(axis, i))
	}
	return out
}

// cloneReference copies through the element iterator, the path every
// non-contiguous copy took before copyStrided.
func cloneReference(t *Tensor) *Tensor {
	out := New(t.shape...)
	it := newIterator(t)
	for i := 0; it.next(); i++ {
		out.data[i] = t.data[it.pos]
	}
	return out
}

func TestSumMatchesReferenceBitwise(t *testing.T) {
	rng := NewRNG(101)
	for trial := 0; trial < 60; trial++ {
		for _, v := range randomViews(rng, 1+trial%4) {
			for axis := 0; axis < v.Rank(); axis++ {
				want := sumReference(v, axis)
				if got := v.Sum(axis); !sameBits(got, want) {
					t.Fatalf("Sum(%d) of shape %v strides %v: %v, reference %v", axis, v.shape, v.strides, got, want)
				}
				// The same elements laid out densely take the direct kernel.
				if got := v.Clone().Sum(axis); !sameBits(got, want) {
					t.Fatalf("contiguous Sum(%d) of shape %v: %v, reference %v", axis, v.shape, got, want)
				}
			}
		}
	}
}

func TestStridedCopyMatchesIteratorBitwise(t *testing.T) {
	rng := NewRNG(202)
	for trial := 0; trial < 60; trial++ {
		for _, v := range randomViews(rng, trial%5) {
			want := cloneReference(v)
			if got := v.Clone(); !sameBits(got, want) || !got.IsContiguous() || got.SharesStorage(v) {
				t.Fatalf("Clone of shape %v strides %v offset %d: %v, want %v", v.shape, v.strides, v.offset, got, want)
			}
			if got := v.Contiguous(); !sameBits(got, want) || !got.IsContiguous() {
				t.Fatalf("Contiguous of shape %v strides %v: %v, want %v", v.shape, v.strides, got, want)
			}
			// Into a dense destination.
			dense := Full(-7, v.shape...)
			dense.CopyFrom(v)
			if !sameBits(dense, want) {
				t.Fatalf("CopyFrom into dense, shape %v strides %v: %v, want %v", v.shape, v.strides, dense, want)
			}
			// Into a strided destination: an interior window of a wider,
			// axis-reversed buffer, whose surroundings must stay untouched.
			if v.Rank() == 0 {
				continue
			}
			padded := make([]int, v.Rank())
			for i, d := range v.shape {
				padded[i] = d + 2
			}
			buf := Full(-7, padded...)
			window := buf
			for i, d := range v.shape {
				window = window.Slice(i, 1, 1+d)
			}
			perm := rng.Perm(v.Rank())
			inv := make([]int, len(perm))
			for i, p := range perm {
				inv[p] = i
			}
			// window.Permute(perm).Permute(inv) has v's shape and scrambled
			// strides.
			window.Permute(perm...).Permute(inv...).CopyFrom(v)
			if !sameBits(window, want) {
				t.Fatalf("CopyFrom into window, shape %v: %v, want %v", v.shape, window, want)
			}
			untouched := 0
			for _, x := range buf.data {
				if x == -7 {
					untouched++
				}
			}
			if untouched != buf.NumElements()-v.NumElements() {
				t.Fatalf("CopyFrom wrote outside its window: shape %v", v.shape)
			}
		}
	}
}

func TestMatMulTransposedKernelsBitwise(t *testing.T) {
	rng := NewRNG(303)
	for trial := 0; trial < 40; trial++ {
		m, n, k := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a, b, g := Randn(rng, m, n), Randn(rng, k, n), Randn(rng, m, k)
		// Exact zeros in the left operand are skipped by MatMul, which shows
		// wherever the other operand is not finite: 0*Inf would be NaN.
		for i := 0; i < n; i++ {
			a.Set(0, rng.Intn(m), i)
		}
		zeroRow := rng.Intn(m)
		for j := 0; j < n; j++ {
			a.Set(0, zeroRow, j)
		}
		a.Set(math.Copysign(0, -1), rng.Intn(m), rng.Intn(n))
		b.Set(math.Inf(1), rng.Intn(k), rng.Intn(n))
		g.Set(math.Inf(-1), rng.Intn(m), rng.Intn(k))

		if got, want := MatMulNT(a, b), MatMul(a, b.T().Contiguous()); !sameBits(got, want) {
			t.Fatalf("MatMulNT %dx%d by %dx%d:\n%v\nwant\n%v", m, n, k, n, got, want)
		}
		if got, want := MatMulTN(a, g), MatMul(a.T().Contiguous(), g); !sameBits(got, want) {
			t.Fatalf("MatMulTN %dx%d by %dx%d:\n%v\nwant\n%v", m, n, m, k, got, want)
		}
		// Strided operands are made dense first, like MatMul's.
		if got, want := MatMulNT(a.T().T(), b.T().Contiguous().T()), MatMulNT(a, b); !sameBits(got, want) {
			t.Fatal("MatMulNT of strided operands differs")
		}
	}
	// Wide enough for MatMul to tile (k > tileK, n > tileN): tiling must not
	// reorder any element's sum either.
	a, b := Randn(rng, 3, 300), Randn(rng, 70, 300)
	if got, want := MatMulNT(a, b), MatMul(a, b.T().Contiguous()); !sameBits(got, want) {
		t.Fatal("MatMulNT differs from tiled MatMul")
	}
	a, g := Randn(rng, 70, 3), Randn(rng, 70, 300)
	if got, want := MatMulTN(a, g), MatMul(a.T().Contiguous(), g); !sameBits(got, want) {
		t.Fatal("MatMulTN differs from tiled MatMul")
	}
}

func TestInPlaceUpdatesMatchBinaryOps(t *testing.T) {
	ops := map[string]struct {
		inPlace func(t, o *Tensor)
		op      func(a, b *Tensor) *Tensor
	}{
		"add": {(*Tensor).AddInPlace, Add},
		"sub": {(*Tensor).SubInPlace, Sub},
		"mul": {(*Tensor).MulInPlace, Mul},
	}
	rng := NewRNG(404)
	for trial := 0; trial < 40; trial++ {
		for _, o := range randomViews(rng, 1+trial%4) {
			rank := o.Rank()
			reversed := make([]int, rank)
			for i := range reversed {
				reversed[i] = rank - 1 - i
			}
			// Destinations as (storage, view of it): o's shape laid out
			// densely (the fast path when o is dense too), a leading axis
			// for o to broadcast over, and o's shape on reversed strides.
			dsts := []struct {
				base *Tensor
				view func(*Tensor) *Tensor
			}{
				{Randn(rng, o.shape...), func(b *Tensor) *Tensor { return b }},
				{Randn(rng, insertDim(o.shape, 0, 2)...), func(b *Tensor) *Tensor { return b }},
				{Randn(rng, o.Permute(reversed...).shape...), func(b *Tensor) *Tensor { return b.Permute(reversed...) }},
			}
			for _, d := range dsts {
				for name, c := range ops {
					want := c.op(d.view(d.base), o)
					got := d.view(d.base.Clone())
					c.inPlace(got, o)
					if !sameBits(got, want) {
						t.Fatalf("%sInPlace shape %v strides %v with shape %v strides %v: %v, want %v", name, got.shape, got.strides, o.shape, o.strides, got, want)
					}
				}
			}
		}
	}
}

func TestBroadcastBinaryMatchesIterator(t *testing.T) {
	rng := NewRNG(505)
	sub := func(x, y float64) float64 { return x - y }
	for trial := 0; trial < 40; trial++ {
		for _, a := range randomViews(rng, trial%5) {
			// b broadcasts against a from a lower rank and through size-1
			// axes; both orders, so either operand is the expanded one.
			bshape := append([]int{}, a.shape[a.Rank()/2:]...)
			for i := range bshape {
				if rng.Intn(2) == 0 {
					bshape[i] = 1
				}
			}
			for _, b := range []*Tensor{Randn(rng, bshape...), Randn(rng, a.shape...), Scalar(3)} {
				for _, pair := range [][2]*Tensor{{a, b}, {b, a}} {
					x, y := pair[0], pair[1]
					want := New(a.shape...)
					xi, yi := newIterator(x.broadcastTo(a.shape)), newIterator(y.broadcastTo(a.shape))
					for i := 0; xi.next() && yi.next(); i++ {
						want.data[i] = x.data[xi.pos] - y.data[yi.pos]
					}
					if got := Binary(x, y, sub); !sameBits(got, want) {
						t.Fatalf("Binary of shapes %v (strides %v) and %v (strides %v): %v, want %v", x.shape, x.strides, y.shape, y.strides, got, want)
					}
				}
			}
		}
	}
}

// TestHeaderAllocations pins the header layout: shape and strides live in
// the header, so a tensor is header + elements and a view is one header.
func TestHeaderAllocations(t *testing.T) {
	base := New(4, 5, 6)
	one := FromSlice([]float64{3}, 1, 1, 1)
	for name, c := range map[string]struct {
		max float64
		fn  func()
	}{
		"New":        {2, func() { New(4, 5, 6) }},
		"Clone":      {2, func() { base.Clone() }},
		"Slice":      {1, func() { base.Slice(1, 1, 3) }},
		"Index":      {1, func() { base.Index(0, 2) }},
		"Transpose":  {1, func() { base.Transpose(0, 2) }},
		"Reshape":    {1, func() { base.Reshape(20, -1) }},
		"Unsqueeze":  {1, func() { base.Unsqueeze(1) }},
		"Item":       {0, func() { one.Item() }},
		"AddInPlace": {1, func() { base.AddInPlace(base) }}, // the chunk closure
	} {
		if got := testing.AllocsPerRun(50, c.fn); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", name, got, c.max)
		}
	}
	if one.Item() != 3 {
		t.Fatal("Item of a rank-3 one-element tensor")
	}
	// Rank above inlineRank still works, with its dims on the heap.
	big := New(2, 1, 2, 1, 2, 3)
	if v := big.Transpose(0, 5); v.Dim(0) != 3 || v.Dim(5) != 2 || !v.SharesStorage(big) || v.Rank() != 6 {
		t.Fatalf("rank-6 transpose: shape %v", v.Shape())
	}
	if !sameBits(big.Permute(5, 4, 3, 2, 1, 0).Clone(), cloneReference(big.Permute(5, 4, 3, 2, 1, 0))) {
		t.Fatal("rank-6 strided copy")
	}
}

func TestSpansStorage(t *testing.T) {
	a := New(3, 4)
	for name, c := range map[string]struct {
		t    *Tensor
		want bool
	}{
		"fresh":        {a, true},
		"reshape":      {a.Reshape(2, 6), true},
		"unsqueeze":    {a.Unsqueeze(1), true},
		"row slice":    {a.Slice(0, 0, 2), false},
		"offset slice": {a.Slice(0, 1, 3), false},
		"transpose":    {a.T(), false},
		"broadcast":    {New(4).BroadcastTo(3, 4), false},
		"clone":        {a.T().Clone(), true},
	} {
		if got := c.t.SpansStorage(); got != c.want {
			t.Errorf("%s: SpansStorage = %v, want %v", name, got, c.want)
		}
	}
}
