package autograd

import (
	"runtime"
	"testing"
	"time"

	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// The backward pass adopts gradients instead of cloning them (see the
// package comment). These tests pin the cases where adopting would alias.

// backwardFrom seeds root with a random gradient and returns the seed and a
// copy of it taken before the pass.
func backwardFrom(t *testing.T, rng *tensor.RNG, root *Variable) (seed, seedCopy *tensor.Tensor) {
	t.Helper()
	seed = tensor.Randn(rng, root.Shape()...)
	seedCopy = seed.Clone()
	if err := BackwardWithGrad(root, seed); err != nil {
		t.Fatal(err)
	}
	return seed, seedCopy
}

// checkOwned fails when two of the gradients share storage, or any shares
// with the root's gradient or the caller's seed.
func checkOwned(t *testing.T, root *Variable, seed *tensor.Tensor, leaves ...*Variable) {
	t.Helper()
	for i, a := range leaves {
		if a.Grad == nil {
			t.Fatalf("leaf %d has no gradient", i)
		}
		if a.Grad.SharesStorage(root.Grad) || a.Grad.SharesStorage(seed) {
			t.Fatalf("leaf %d's gradient aliases the root's gradient or the seed", i)
		}
		if !a.Grad.SpansStorage() {
			t.Fatalf("leaf %d's gradient is a view into a larger buffer", i)
		}
		for j, b := range leaves[:i] {
			if a.Grad.SharesStorage(b.Grad) {
				t.Fatalf("leaves %d and %d share gradient storage", j, i)
			}
		}
	}
}

func TestAdoptionAddSameVariableTwice(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := leaf(rng, 3, 4)
	root := Add(a, a)
	seed, want := backwardFrom(t, rng, root)
	checkOwned(t, root, seed, a)
	if !a.Grad.Equal(want.MulScalar(2)) {
		t.Fatalf("d(a+a) = %v, want twice %v", a.Grad, want)
	}
	if !root.Grad.Equal(want) || !seed.Equal(want) {
		t.Fatal("backward changed the root's gradient or the caller's seed")
	}
}

func TestAdoptionAddSameShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	a, b := leaf(rng, 3, 4), leaf(rng, 3, 4)
	// An interior Add: its upstream gradient is not the root's, so one of
	// the two inputs may adopt it — and only one.
	root := ScalarMul(Add(a, b), 3)
	seed, want := backwardFrom(t, rng, root)
	checkOwned(t, root, seed, a, b)
	a.Grad.Fill(0) // an optimizer scribbling on one gradient
	if !b.Grad.Equal(want.MulScalar(3)) {
		t.Fatalf("b's gradient changed with a's: %v", b.Grad)
	}
}

func TestAdoptionReshapeChainLeavesRootAlone(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := leaf(rng, 2, 6)
	// Every backward here returns a view of its upstream gradient; the
	// first of them is a view of the root's.
	root := Reshape(Reshape(Reshape(a, 3, 4), 12), 4, 3)
	seed, want := backwardFrom(t, rng, root)
	checkOwned(t, root, seed, a)
	if !a.Grad.Equal(want.Reshape(2, 6)) {
		t.Fatalf("reshape chain gradient %v, want %v", a.Grad, want)
	}
	a.Grad.Fill(0)
	if !root.Grad.Equal(want) || !seed.Equal(want) {
		t.Fatal("writing the leaf's gradient reached the root's gradient or the seed")
	}
	// A second pass adds its seed to the gradient the root kept and sends
	// the total down, as it always did.
	a.ZeroGrad()
	if err := BackwardWithGrad(root, seed); err != nil {
		t.Fatal(err)
	}
	if !root.Grad.Equal(want.MulScalar(2)) || !a.Grad.Equal(want.MulScalar(2).Reshape(2, 6)) || !seed.Equal(want) {
		t.Fatalf("second pass: root %v leaf %v", root.Grad, a.Grad)
	}
	checkOwned(t, root, seed, a)
}

func TestAdoptionConcatStackSiblings(t *testing.T) {
	rng := tensor.NewRNG(4)
	for name, build := range map[string]func(vs ...*Variable) *Variable{
		// Axis 0: each sibling's gradient is a dense row range of the
		// upstream gradient — contiguous, yet not its own storage.
		"concat0": func(vs ...*Variable) *Variable { return Concat(0, vs...) },
		"concat1": func(vs ...*Variable) *Variable { return Concat(1, vs...) },
		"stack0":  func(vs ...*Variable) *Variable { return Stack(0, vs...) },
		"stack2":  func(vs ...*Variable) *Variable { return Stack(2, vs...) },
	} {
		a, b, c := leaf(rng, 2, 3), leaf(rng, 2, 3), leaf(rng, 2, 3)
		root := Neg(build(a, b, a, c))
		seed, _ := backwardFrom(t, rng, root)
		checkOwned(t, root, seed, a, b, c)
		bBefore, cBefore := b.Grad.Clone(), c.Grad.Clone()
		a.Grad.Fill(0)
		if !b.Grad.Equal(bBefore) || !c.Grad.Equal(cBefore) {
			t.Fatalf("%s: siblings' gradients share storage", name)
		}
	}
}

func TestAdoptionMatchesCloningEngine(t *testing.T) {
	// One expression through most op kinds, differentiated twice: once as it
	// is, once with every gradient the engine could adopt made unadoptable
	// (each leaf pre-seeded with a zero gradient, so everything accumulates
	// into storage the engine never took from an op). Same values.
	expr := func(a, b, w *Variable) *Variable {
		h := Tanh(Add(MatMul(a, w), b)) // bias broadcast: Sum kernel
		h = Mul(h, Sigmoid(h))
		parts := Concat(1, Slice(h, 1, 0, 2), Slice(h, 1, 2, 4), h)
		return MeanAll(Transpose(Reshape(parts, 2, 3, 8), 0, 1))
	}
	rng := tensor.NewRNG(5)
	av, bv, wv := tensor.Randn(rng, 6, 5), tensor.Randn(rng, 4), tensor.Randn(rng, 5, 4)
	a1, b1, w1 := NewVariable(av), NewVariable(bv), NewVariable(wv)
	if err := Backward(expr(a1, b1, w1)); err != nil {
		t.Fatal(err)
	}
	a2, b2, w2 := NewVariable(av), NewVariable(bv), NewVariable(wv)
	for _, v := range []*Variable{a2, b2, w2} {
		v.Grad = tensor.ZerosLike(v.Value)
	}
	if err := Backward(expr(a2, b2, w2)); err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]*Variable{{a1, a2}, {b1, b2}, {w1, w2}} {
		if !pair[0].Grad.Equal(pair[1].Grad) {
			t.Fatalf("input %d: adopted %v, accumulated %v", i, pair[0].Grad, pair[1].Grad)
		}
	}
}

// TestDroppedCSRIsCollected: the transpose SpMM's backward builds hangs off
// the matrix, so a support that was differentiated through and then dropped
// is garbage — no package-level cache pins it.
func TestDroppedCSRIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		m := sparse.Identity(16).Scale(0.5)
		runtime.SetFinalizer(m, func(*sparse.CSR) { close(collected) })
		x := leaf(tensor.NewRNG(6), 16, 3)
		ex := &singleShardExchange{own: 16}
		if err := Backward(SumAll(Add(SpMM(m, x), ShardSpMM(m, ex, x)))); err != nil {
			t.Fatal(err)
		}
		if x.Grad == nil {
			t.Fatal("no gradient through SpMM")
		}
	}()
	runtime.GC() // finds m unreachable and queues its finalizer
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a CSR dropped after a backward pass is still reachable")
	}
}

// TestBroadcastGradientReducesInAscendingAxisOrder: the adjoint of
// broadcasting sums the leading axes first and then every size-1 axis in
// ascending order — the order is part of the bitwise contract — and hands
// back a dense tensor of the input's own shape.
func TestBroadcastGradientReducesInAscendingAxisOrder(t *testing.T) {
	rng := tensor.NewRNG(7)
	a, b, c := leaf(rng, 5, 2, 3, 4), leaf(rng, 1, 3, 1), leaf(rng, 4)
	root := Neg(Add(Add(a, b), c))
	_, want := backwardFrom(t, rng, root)
	g := want.Neg()
	wantB := g.Sum(0).Sum(0).Sum(1).Reshape(1, 3, 1) // [5,2,3,4] -> [2,3,4] -> [3,4] -> [3]
	wantC := g.Sum(0).Sum(0).Sum(0)
	if !b.Grad.Equal(wantB) || !c.Grad.Equal(wantC) || !a.Grad.Equal(g) {
		t.Fatalf("broadcast gradients: b %v want %v; c %v want %v", b.Grad, wantB, c.Grad, wantC)
	}
	for i, v := range []*Variable{a, b, c} {
		if !v.Grad.SpansStorage() {
			t.Fatalf("input %d: gradient of shape %v strides %v is not dense", i, v.Grad.Shape(), v.Grad.Strides())
		}
	}
}
