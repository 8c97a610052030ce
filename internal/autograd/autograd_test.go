package autograd

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// gradCheck verifies autograd gradients of f (a scalar function of the leaf
// inputs) against central finite differences.
func gradCheck(t *testing.T, name string, inputs []*Variable, f func(ins []*Variable) *Variable, tol float64) {
	t.Helper()
	out := f(inputs)
	if err := Backward(out); err != nil {
		t.Fatalf("%s: backward: %v", name, err)
	}
	const h = 1e-6
	for vi, v := range inputs {
		if !v.RequiresGrad() {
			continue
		}
		if v.Grad == nil {
			t.Fatalf("%s: input %d missing gradient", name, vi)
		}
		data := v.Value.Data()
		grad := v.Grad.Contiguous().Data()
		for i := range data {
			orig := data[i]
			data[i] = orig + h
			plus := f(cloneLeaves(inputs)).Value.Item()
			data[i] = orig - h
			minus := f(cloneLeaves(inputs)).Value.Item()
			data[i] = orig
			numeric := (plus - minus) / (2 * h)
			if math.Abs(numeric-grad[i]) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("%s: input %d elem %d: autograd %.8g vs numeric %.8g", name, vi, i, grad[i], numeric)
			}
		}
	}
}

// cloneLeaves produces fresh leaf variables sharing the same storage, so the
// finite-difference probes rebuild the graph without stale tape state.
func cloneLeaves(inputs []*Variable) []*Variable {
	out := make([]*Variable, len(inputs))
	for i, v := range inputs {
		if v.RequiresGrad() {
			out[i] = NewVariable(v.Value)
		} else {
			out[i] = Constant(v.Value)
		}
	}
	return out
}

func leaf(rng *tensor.RNG, shape ...int) *Variable {
	return NewVariable(tensor.Randn(rng, shape...))
}

func TestGradAdd(t *testing.T) {
	rng := tensor.NewRNG(1)
	gradCheck(t, "add", []*Variable{leaf(rng, 3, 4), leaf(rng, 3, 4)}, func(ins []*Variable) *Variable {
		return MeanAll(Add(ins[0], ins[1]))
	}, 1e-5)
}

func TestGradAddBroadcast(t *testing.T) {
	rng := tensor.NewRNG(2)
	gradCheck(t, "addBroadcast", []*Variable{leaf(rng, 3, 4), leaf(rng, 4)}, func(ins []*Variable) *Variable {
		return MeanAll(Add(ins[0], ins[1]))
	}, 1e-5)
}

func TestGradSub(t *testing.T) {
	rng := tensor.NewRNG(3)
	gradCheck(t, "sub", []*Variable{leaf(rng, 2, 3), leaf(rng, 1, 3)}, func(ins []*Variable) *Variable {
		return MeanAll(Sub(ins[0], ins[1]))
	}, 1e-5)
}

func TestGradMul(t *testing.T) {
	rng := tensor.NewRNG(4)
	gradCheck(t, "mul", []*Variable{leaf(rng, 3, 2), leaf(rng, 3, 2)}, func(ins []*Variable) *Variable {
		return SumAll(Mul(ins[0], ins[1]))
	}, 1e-5)
}

func TestGradMulBroadcast(t *testing.T) {
	rng := tensor.NewRNG(5)
	gradCheck(t, "mulBroadcast", []*Variable{leaf(rng, 4, 3), leaf(rng, 3)}, func(ins []*Variable) *Variable {
		return SumAll(Mul(ins[0], ins[1]))
	}, 1e-5)
}

func TestGradMatMul(t *testing.T) {
	rng := tensor.NewRNG(6)
	gradCheck(t, "matmul", []*Variable{leaf(rng, 3, 4), leaf(rng, 4, 2)}, func(ins []*Variable) *Variable {
		return MeanAll(MatMul(ins[0], ins[1]))
	}, 1e-5)
}

func TestGradSpMM(t *testing.T) {
	rng := tensor.NewRNG(7)
	m, err := sparse.FromCOO(4, 4, []sparse.Coord{
		{Row: 0, Col: 1, Val: 0.5}, {Row: 1, Col: 0, Val: -1.2},
		{Row: 2, Col: 3, Val: 2.0}, {Row: 3, Col: 3, Val: 0.7}, {Row: 0, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, "spmm", []*Variable{leaf(rng, 4, 3)}, func(ins []*Variable) *Variable {
		return MeanAll(SpMM(m, ins[0]))
	}, 1e-5)
}

func TestGradActivations(t *testing.T) {
	rng := tensor.NewRNG(8)
	gradCheck(t, "sigmoid", []*Variable{leaf(rng, 3, 3)}, func(ins []*Variable) *Variable {
		return MeanAll(Sigmoid(ins[0]))
	}, 1e-5)
	gradCheck(t, "tanh", []*Variable{leaf(rng, 3, 3)}, func(ins []*Variable) *Variable {
		return MeanAll(Tanh(ins[0]))
	}, 1e-5)
	// Shift ReLU input away from the kink at zero.
	v := NewVariable(tensor.Randn(tensor.NewRNG(9), 3, 3).AddScalar(0.5))
	gradCheck(t, "relu", []*Variable{v}, func(ins []*Variable) *Variable {
		return MeanAll(Relu(ins[0]))
	}, 1e-4)
}

func TestGradConcatStackSlice(t *testing.T) {
	rng := tensor.NewRNG(10)
	gradCheck(t, "concat", []*Variable{leaf(rng, 2, 3), leaf(rng, 2, 2)}, func(ins []*Variable) *Variable {
		return MeanAll(Concat(1, ins[0], ins[1]))
	}, 1e-5)
	gradCheck(t, "stack", []*Variable{leaf(rng, 2, 3), leaf(rng, 2, 3)}, func(ins []*Variable) *Variable {
		return MeanAll(Stack(0, ins[0], ins[1]))
	}, 1e-5)
	gradCheck(t, "slice", []*Variable{leaf(rng, 5, 3)}, func(ins []*Variable) *Variable {
		return MeanAll(Slice(ins[0], 0, 1, 4))
	}, 1e-5)
}

func TestGradReshapeTranspose(t *testing.T) {
	rng := tensor.NewRNG(11)
	gradCheck(t, "reshape", []*Variable{leaf(rng, 2, 6)}, func(ins []*Variable) *Variable {
		return MeanAll(Reshape(ins[0], 3, 4))
	}, 1e-5)
	gradCheck(t, "transpose", []*Variable{leaf(rng, 2, 5)}, func(ins []*Variable) *Variable {
		return MeanAll(Mul(Transpose(ins[0], 0, 1), Constant(tensor.Randn(tensor.NewRNG(99), 5, 2))))
	}, 1e-5)
}

func TestGradSoftmax(t *testing.T) {
	rng := tensor.NewRNG(12)
	w := Constant(tensor.Randn(tensor.NewRNG(13), 3, 4))
	gradCheck(t, "softmax", []*Variable{leaf(rng, 3, 4)}, func(ins []*Variable) *Variable {
		return SumAll(Mul(Softmax(ins[0]), w))
	}, 1e-4)
}

func TestGradGatherRows(t *testing.T) {
	rng := tensor.NewRNG(14)
	gradCheck(t, "gatherRows", []*Variable{leaf(rng, 5, 3)}, func(ins []*Variable) *Variable {
		return MeanAll(GatherRows(ins[0], []int{0, 2, 2, 4}))
	}, 1e-5)
}

func TestGradLayerNorm(t *testing.T) {
	rng := tensor.NewRNG(15)
	x := leaf(rng, 4, 6)
	gamma := NewVariable(tensor.Ones(6))
	beta := NewVariable(tensor.New(6))
	w := Constant(tensor.Randn(tensor.NewRNG(16), 4, 6))
	gradCheck(t, "layerNorm", []*Variable{x, gamma, beta}, func(ins []*Variable) *Variable {
		return SumAll(Mul(LayerNorm(ins[0], ins[1], ins[2], 1e-5), w))
	}, 1e-4)
}

func TestGradLosses(t *testing.T) {
	rng := tensor.NewRNG(17)
	target := tensor.Randn(tensor.NewRNG(18), 4, 3)
	gradCheck(t, "mse", []*Variable{leaf(rng, 4, 3)}, func(ins []*Variable) *Variable {
		return MSELoss(ins[0], target)
	}, 1e-4)
	gradCheck(t, "mae", []*Variable{leaf(rng, 4, 3)}, func(ins []*Variable) *Variable {
		return MAELoss(ins[0], target)
	}, 1e-4)
}

func TestGradChainedExpression(t *testing.T) {
	// A small DCGRU-like expression: sigmoid(W1 x + W2 h) gating tanh(...).
	rng := tensor.NewRNG(19)
	x := leaf(rng, 4, 3)
	h := leaf(rng, 4, 5)
	w1 := leaf(rng, 3, 5)
	w2 := leaf(rng, 5, 5)
	gradCheck(t, "chained", []*Variable{x, h, w1, w2}, func(ins []*Variable) *Variable {
		u := Sigmoid(Add(MatMul(ins[0], ins[2]), MatMul(ins[1], ins[3])))
		c := Tanh(MatMul(ins[0], ins[2]))
		out := Add(Mul(u, ins[1]), Mul(AddScalar(Neg(u), 1), c))
		return MeanAll(out)
	}, 1e-4)
}

// sameBits reports whether a and b have the same shape and bit-identical
// elements (Equal would let -0 match 0).
func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Contiguous().Data(), b.Contiguous().Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestFusedGateOpsMatchCompositesBitwise: OneMinus is AddScalar(Neg(u), 1)
// as one op, and the Sigmoid/Tanh backward is one pass over g and the
// output; values and gradients must be the composites' bit for bit.
func TestFusedGateOpsMatchCompositesBitwise(t *testing.T) {
	rng := tensor.NewRNG(20)
	gradCheck(t, "oneMinus", []*Variable{leaf(rng, 3, 4)}, func(ins []*Variable) *Variable {
		return MeanAll(Mul(OneMinus(ins[0]), ins[0]))
	}, 1e-6)

	x, h, w := leaf(rng, 6, 5), leaf(rng, 6, 5), leaf(rng, 5, 5)
	cell := func(oneMinus func(*Variable) *Variable) (*Variable, []*Variable) {
		ins := cloneLeaves([]*Variable{x, h, w})
		u := Sigmoid(MatMul(ins[0], ins[2]))
		c := Tanh(MatMul(ins[1], ins[2]))
		out := Add(Mul(u, ins[1]), Mul(oneMinus(u), c))
		if err := Backward(SumAll(Mul(out, out))); err != nil {
			t.Fatal(err)
		}
		return out, ins
	}
	fused, fusedIns := cell(OneMinus)
	composite, compositeIns := cell(func(u *Variable) *Variable { return AddScalar(Neg(u), 1) })
	if !sameBits(fused.Value, composite.Value) {
		t.Fatal("OneMinus forward differs from AddScalar(Neg(u), 1)")
	}
	for i := range fusedIns {
		if !sameBits(fusedIns[i].Grad, compositeIns[i].Grad) {
			t.Fatalf("input %d: gradient through OneMinus differs from the composite", i)
		}
	}

	for name, c := range map[string]struct {
		op    func(*Variable) *Variable
		deriv func(v float64) float64
	}{
		"sigmoid": {Sigmoid, func(v float64) float64 { return v * (1 - v) }},
		"tanh":    {Tanh, func(v float64) float64 { return 1 - v*v }},
	} {
		in := leaf(rng, 7, 9)
		out := c.op(in)
		g := tensor.Randn(rng, 7, 9)
		if err := BackwardWithGrad(out, g); err != nil {
			t.Fatal(err)
		}
		if want := tensor.Mul(g, out.Value.Apply(c.deriv)); !sameBits(in.Grad, want) {
			t.Fatalf("%s backward differs from g times the derivative tensor", name)
		}
	}
}

func TestGradAccumulatesOnReuse(t *testing.T) {
	// y = x + x must give gradient 2.
	x := NewVariable(tensor.FromSlice([]float64{1, 2}, 2))
	y := SumAll(Add(x, x))
	if err := Backward(y); err != nil {
		t.Fatal(err)
	}
	if x.Grad.At(0) != 2 || x.Grad.At(1) != 2 {
		t.Fatalf("reused-variable grad wrong: %v", x.Grad)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	x := NewVariable(tensor.New(2, 2))
	if err := Backward(Add(x, x)); err == nil {
		t.Fatal("expected error for non-scalar Backward")
	}
}

func TestConstantsGetNoGrad(t *testing.T) {
	x := NewVariable(tensor.Ones(2))
	c := Constant(tensor.Ones(2))
	y := SumAll(Mul(x, c))
	if err := Backward(y); err != nil {
		t.Fatal(err)
	}
	if c.Grad != nil {
		t.Fatal("constant must not receive gradient")
	}
	if x.Grad == nil {
		t.Fatal("leaf must receive gradient")
	}
}

func TestDetachCutsGraph(t *testing.T) {
	x := NewVariable(tensor.Ones(2))
	h := Mul(x, x)
	d := h.Detach()
	y := SumAll(Mul(d, d))
	if err := Backward(y); err != nil {
		t.Fatal(err)
	}
	if x.Grad != nil {
		t.Fatal("detach must stop gradient flow")
	}
}

func TestZeroGradAndRepeatedBackward(t *testing.T) {
	x := NewVariable(tensor.Ones(3))
	run := func() float64 {
		y := SumAll(Mul(x, x))
		if err := Backward(y); err != nil {
			t.Fatal(err)
		}
		return x.Grad.At(0)
	}
	if g := run(); g != 2 {
		t.Fatalf("first backward grad %v", g)
	}
	// Without ZeroGrad, gradients accumulate (PyTorch semantics).
	if g := run(); g != 4 {
		t.Fatalf("accumulated grad %v want 4", g)
	}
	x.ZeroGrad()
	if g := run(); g != 2 {
		t.Fatalf("after ZeroGrad grad %v want 2", g)
	}
}

func TestBackwardWithGradSeed(t *testing.T) {
	x := NewVariable(tensor.Ones(2, 2))
	y := ScalarMul(x, 3)
	seed := tensor.Full(2, 2, 2)
	if err := BackwardWithGrad(y, seed); err != nil {
		t.Fatal(err)
	}
	if x.Grad.At(1, 1) != 6 {
		t.Fatalf("seeded backward grad %v", x.Grad)
	}
	if err := BackwardWithGrad(y, tensor.Ones(3)); err == nil {
		t.Fatal("expected seed-shape error")
	}
}

func TestLongChainBackwardNoStackOverflow(t *testing.T) {
	// Simulates an RNN unrolled over many steps.
	x := NewVariable(tensor.Ones(4))
	v := ScalarMul(x, 1.0)
	for i := 0; i < 3000; i++ {
		v = AddScalar(ScalarMul(v, 0.999), 0.001)
	}
	if err := Backward(MeanAll(v)); err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.999, 3000) / 4
	if math.Abs(x.Grad.At(0)-want) > 1e-9 {
		t.Fatalf("long-chain grad %v want %v", x.Grad.At(0), want)
	}
}

// Property: gradient of sum(a*b) wrt a equals b exactly, for random shapes.
func TestPropertyMulGradIdentity(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		m := int(mRaw%5) + 1
		n := int(nRaw%5) + 1
		rng := tensor.NewRNG(seed)
		a := NewVariable(tensor.Randn(rng, m, n))
		b := tensor.Randn(rng, m, n)
		y := SumAll(Mul(a, Constant(b)))
		if err := Backward(y); err != nil {
			return false
		}
		return a.Grad.AllClose(b, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBackwardHookFiresOncePerLeafWithFinalGrad verifies the gradient-ready
// hook: one firing per reachable gradient-requiring leaf, at a point where
// the leaf's gradient already equals its final value.
func TestBackwardHookFiresOncePerLeafWithFinalGrad(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := leaf(rng, 3, 3)
	b := leaf(rng, 3, 3)
	c := leaf(rng, 3, 3)
	// a appears twice (two consumers); c feeds two separate ops.
	out := MeanAll(Add(Mul(a, b), Add(Mul(a, c), Sigmoid(c))))

	fired := map[*Variable]int{}
	snapshot := map[*Variable]*tensor.Tensor{}
	err := BackwardHooked(out, func(v *Variable) {
		fired[v]++
		if v.Grad != nil {
			snapshot[v] = v.Grad.Clone()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*Variable{"a": a, "b": b, "c": c} {
		if fired[v] != 1 {
			t.Fatalf("leaf %s: hook fired %d times, want 1", name, fired[v])
		}
		if v.Grad == nil || snapshot[v] == nil {
			t.Fatalf("leaf %s: gradient missing at hook time", name)
		}
		if !snapshot[v].Equal(v.Grad) {
			t.Fatalf("leaf %s: hook observed a non-final gradient", name)
		}
	}
}

// TestBackwardHookOrderMatchesBackwardSweep verifies the last-used leaf
// (closest to the output) becomes ready before a leaf consumed only at the
// start of the chain — the property DDP bucket overlap relies on.
func TestBackwardHookOrderMatchesBackwardSweep(t *testing.T) {
	rng := tensor.NewRNG(2)
	early := leaf(rng, 4, 4) // consumed first (deepest in the chain)
	late := leaf(rng, 4, 4)  // consumed last (adjacent to the output)
	out := MeanAll(MatMul(Tanh(MatMul(early, early)), late))

	var order []*Variable
	if err := BackwardHooked(out, func(v *Variable) { order = append(order, v) }); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != late || order[1] != early {
		t.Fatalf("hook order wrong: got %d leaves, late-first=%v", len(order), len(order) > 0 && order[0] == late)
	}
}

// TestBackwardHookNilAndConstantLeaves verifies a nil hook reproduces plain
// Backward and constants never fire.
func TestBackwardHookNilAndConstantLeaves(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := leaf(rng, 2, 2)
	k := Constant(tensor.Ones(2, 2))
	out := MeanAll(Mul(a, k))
	if err := BackwardWithHook(out, tensor.Ones(), nil); err != nil {
		t.Fatal(err)
	}
	want := a.Grad.Clone()
	a.ZeroGrad()

	fired := 0
	out2 := MeanAll(Mul(a, k))
	if err := BackwardHooked(out2, func(v *Variable) {
		fired++
		if v != a {
			t.Fatal("hook fired for a non-gradient leaf")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times", fired)
	}
	if !a.Grad.Equal(want) {
		t.Fatal("hooked backward changed the gradients")
	}
}

// TestBackwardTimedReportsMonotonicElapsed verifies the timing contract of
// the timed gradient-ready hook: one firing per leaf, elapsed values
// non-decreasing in firing order, bounded by the returned backward total,
// and gradients identical to plain Backward.
func TestBackwardTimedReportsMonotonicElapsed(t *testing.T) {
	rng := tensor.NewRNG(4)
	early := leaf(rng, 8, 8)
	late := leaf(rng, 8, 8)
	build := func() *Variable { return MeanAll(MatMul(Tanh(MatMul(early, early)), late)) }

	if err := Backward(build()); err != nil {
		t.Fatal(err)
	}
	wantEarly, wantLate := early.Grad.Clone(), late.Grad.Clone()
	early.ZeroGrad()
	late.ZeroGrad()

	var elapsed []time.Duration
	total, err := BackwardTimed(build(), func(v *Variable, d time.Duration) {
		elapsed = append(elapsed, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(elapsed) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(elapsed))
	}
	for i, d := range elapsed {
		if d < 0 || d > total {
			t.Fatalf("elapsed[%d] = %v outside [0, total=%v]", i, d, total)
		}
		if i > 0 && d < elapsed[i-1] {
			t.Fatalf("elapsed not monotonic: %v after %v", d, elapsed[i-1])
		}
	}
	if !early.Grad.AllClose(wantEarly, 1e-12) || !late.Grad.AllClose(wantLate, 1e-12) {
		t.Fatal("timed backward changed the gradients")
	}

	// Non-scalar roots are rejected, like Backward.
	if _, err := BackwardTimed(Add(early, late), nil); err == nil {
		t.Fatal("expected scalar-output error")
	}
}

// TestNoGradReachesEveryOp runs each op once on a trainable input and once
// on the same values through NoGrad, with any second operand a trainable
// parameter: the first records a node, the second returns a no-grad leaf
// with bitwise the same value, so no op builds a tape a NoGrad input
// reaches.
func TestNoGradReachesEveryOp(t *testing.T) {
	rng := tensor.NewRNG(31)
	x := tensor.Rand(rng, 2, 3).AddScalar(0.5) // positive: Log, Sqrt, Pow
	p := leaf(rng, 2, 3)
	gamma, beta := leaf(rng, 3), leaf(rng, 3)
	m := sparse.FromDense(tensor.FromSlice([]float64{0, 1, 1, 0}, 2, 2))
	ex := &fakeExchange{haloRows: tensor.New(0, 3), remote: tensor.New(2, 3)}
	ops := map[string]func(in *Variable) *Variable{
		"add":        func(in *Variable) *Variable { return Add(in, p) },
		"sub":        func(in *Variable) *Variable { return Sub(p, in) },
		"mul":        func(in *Variable) *Variable { return Mul(in, p) },
		"div":        func(in *Variable) *Variable { return Div(p, in) },
		"neg":        Neg,
		"scalarMul":  func(in *Variable) *Variable { return ScalarMul(in, 3) },
		"addScalar":  func(in *Variable) *Variable { return AddScalar(in, 3) },
		"matmul":     func(in *Variable) *Variable { return MatMul(Transpose(p, 0, 1), in) },
		"spmm":       func(in *Variable) *Variable { return SpMM(m, in) },
		"shardSpMM":  func(in *Variable) *Variable { return ShardSpMM(shardBlock(m), ex, in) },
		"oneMinus":   OneMinus,
		"sigmoid":    Sigmoid,
		"tanh":       Tanh,
		"relu":       Relu,
		"concat":     func(in *Variable) *Variable { return Concat(1, p, in, p, in) },
		"stack":      func(in *Variable) *Variable { return Stack(0, in, p) },
		"slice":      func(in *Variable) *Variable { return Slice(in, 1, 1, 3) },
		"reshape":    func(in *Variable) *Variable { return Reshape(in, 3, 2) },
		"transpose":  func(in *Variable) *Variable { return Transpose(in, 0, 1) },
		"sumAll":     SumAll,
		"meanAll":    MeanAll,
		"softmax":    Softmax,
		"gatherRows": func(in *Variable) *Variable { return GatherRows(in, []int{1, 0, 1}) },
		"layerNorm":  func(in *Variable) *Variable { return LayerNorm(in, gamma, beta, 1e-5) },
		"exp":        Exp,
		"log":        Log,
		"sqrt":       Sqrt,
		"pow":        func(in *Variable) *Variable { return Pow(in, 1.5) },
		"sumAxis":    func(in *Variable) *Variable { return SumAxis(in, 1) },
		"bmm":        func(in *Variable) *Variable { return BMM(Reshape(in, 1, 2, 3), Reshape(p, 1, 3, 2)) },
		"dropout":    func(in *Variable) *Variable { return Dropout(in, 0.5, tensor.NewRNG(1)) },
		"clamp":      func(in *Variable) *Variable { return Clamp(in, 0.8, 1.2) },
		"huber":      func(in *Variable) *Variable { return HuberLoss(in, p.Value, 0.5) },
		"mae":        func(in *Variable) *Variable { return MAELoss(in, p.Value) },
		"maskedMAE":  func(in *Variable) *Variable { return MaskedMAELoss(in, p.Value, 0) },
		"mse":        func(in *Variable) *Variable { return MSELoss(in, p.Value) },
	}
	for name, op := range ops {
		recorded := op(NewVariable(x))
		if recorded.op == nil {
			t.Fatalf("%s: a trainable input recorded no node", name)
		}
		free := op(NoGrad(x))
		if free.op != nil || free.RequiresGrad() || !free.noGrad {
			t.Fatalf("%s: a NoGrad input built a node (requires grad %v, no-grad %v)", name, free.RequiresGrad(), free.noGrad)
		}
		want, got := recorded.Value.Contiguous().Data(), free.Value.Contiguous().Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d is %v with no tape, %v recorded", name, i, got[i], want[i])
			}
		}
	}
}
