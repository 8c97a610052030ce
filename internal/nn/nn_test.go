package nn

import (
	"math"
	"testing"
	"testing/quick"

	"pgti/internal/autograd"
	"pgti/internal/graph"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

func testSupports(t testing.TB, n int) []*sparse.CSR {
	t.Helper()
	g, err := graph.RoadNetwork(11, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	return []*sparse.CSR{fwd, bwd}
}

func TestLinearForward(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear(rng, "l", 3, 2)
	x := autograd.Constant(tensor.Randn(rng, 5, 3))
	y := l.Forward(x)
	if s := y.Shape(); s[0] != 5 || s[1] != 2 {
		t.Fatalf("shape %v", s)
	}
	// Rank-3 input round-trips through flattening.
	x3 := autograd.Constant(tensor.Randn(rng, 2, 4, 3))
	y3 := l.Forward(x3)
	if s := y3.Shape(); s[0] != 2 || s[1] != 4 || s[2] != 2 {
		t.Fatalf("rank-3 shape %v", s)
	}
}

func TestLinearLearnsAffineMap(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear(rng, "l", 2, 1)
	opt := NewAdam(l, 0.05)
	var loss float64
	for i := 0; i < 300; i++ {
		x := tensor.Randn(rng, 16, 2)
		target := tensor.New(16, 1)
		for r := 0; r < 16; r++ {
			target.Set(3*x.At(r, 0)-2*x.At(r, 1)+0.5, r, 0)
		}
		out := l.Forward(autograd.NewVariable(x))
		lv := autograd.MSELoss(out, target)
		loss = lv.Value.Item()
		if err := autograd.Backward(lv); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if loss > 1e-3 {
		t.Fatalf("linear regression did not converge: loss %v", loss)
	}
	if math.Abs(l.Weight.Tensor().At(0, 0)-3) > 0.05 {
		t.Fatalf("learned weight %v want 3", l.Weight.Tensor().At(0, 0))
	}
}

func TestDiffusionConvShapeAndGrad(t *testing.T) {
	sup := testSupports(t, 8)
	rng := tensor.NewRNG(3)
	dc := NewDiffusionConv(rng, "dc", sup, 2, 3, 5)
	x := autograd.NewVariable(tensor.Randn(rng, 2, 8, 3))
	y := dc.Forward(x)
	if s := y.Shape(); s[0] != 2 || s[1] != 8 || s[2] != 5 {
		t.Fatalf("shape %v", s)
	}
	if err := autograd.Backward(autograd.MeanAll(y)); err != nil {
		t.Fatal(err)
	}
	if x.Grad == nil || dc.proj.Weight.V.Grad == nil {
		t.Fatal("gradients missing")
	}
	// Weight dims: (1 + K*len(supports)) * in.
	if w := dc.proj.Weight.Tensor(); w.Dim(0) != (1+2*2)*3 {
		t.Fatalf("projection in-dim %d", w.Dim(0))
	}
}

func TestDiffusionConvIdentitySupportMatchesLinear(t *testing.T) {
	// With the identity support and K=1, diffusion conv is a linear layer on
	// the concatenation [x, x].
	rng := tensor.NewRNG(4)
	dc := NewDiffusionConv(rng, "dc", []*sparse.CSR{sparse.Identity(6)}, 1, 2, 3)
	x := tensor.Randn(rng, 1, 6, 2)
	y := dc.Forward(autograd.Constant(x))
	xx := tensor.Concat(2, x, x).Reshape(6, 4)
	want := autograd.Add(autograd.MatMul(autograd.Constant(xx), dc.proj.Weight.V), dc.proj.Bias.V)
	if !y.Value.Reshape(6, 3).AllClose(want.Value, 1e-12) {
		t.Fatal("identity-support diffusion conv disagrees with linear reference")
	}
}

func TestDCGRUCellStep(t *testing.T) {
	sup := testSupports(t, 8)
	rng := tensor.NewRNG(5)
	cell := NewDCGRUCell(rng, "cell", sup, 2, 3, 6)
	h := cell.InitState(2, 8)
	if s := h.Shape(); s[0] != 2 || s[1] != 8 || s[2] != 6 {
		t.Fatalf("init state shape %v", s)
	}
	if h.Value.SumAll() != 0 {
		t.Fatal("init state must be zero")
	}
	x := autograd.Constant(tensor.Randn(rng, 2, 8, 3))
	h2 := cell.Step(x, h)
	if s := h2.Shape(); s[0] != 2 || s[1] != 8 || s[2] != 6 {
		t.Fatalf("step shape %v", s)
	}
}

// Property: starting from a zero state, the DCGRU hidden state stays in
// (-1, 1) — it is a convex combination of the previous state and a tanh.
func TestPropertyDCGRUHiddenBounded(t *testing.T) {
	sup := testSupports(t, 6)
	f := func(seed uint64, stepsRaw uint8) bool {
		steps := int(stepsRaw%5) + 1
		rng := tensor.NewRNG(seed)
		cell := NewDCGRUCell(rng, "c", sup, 1, 2, 4)
		h := cell.InitState(1, 6)
		for s := 0; s < steps; s++ {
			x := autograd.Constant(tensor.Randn(rng, 1, 6, 2).MulScalar(3))
			h = cell.Step(x, h)
		}
		return h.Value.MaxAll() < 1 && h.Value.MinAll() > -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDCRNNForwardShape(t *testing.T) {
	sup := testSupports(t, 8)
	rng := tensor.NewRNG(6)
	m := NewDCRNN(rng, sup, DCRNNConfig{In: 2, Hidden: 8, Layers: 2, K: 2, Horizon: 3})
	x := autograd.Constant(tensor.Randn(rng, 2, 4, 8, 2))
	y := m.Forward(x)
	if s := y.Shape(); s[0] != 2 || s[1] != 3 || s[2] != 8 || s[3] != 1 {
		t.Fatalf("DCRNN output shape %v", s)
	}
	if m.OutSteps() != 3 {
		t.Fatalf("OutSteps %d", m.OutSteps())
	}
}

func TestPGTDCRNNForwardShape(t *testing.T) {
	sup := testSupports(t, 8)
	rng := tensor.NewRNG(7)
	m := NewPGTDCRNN(rng, sup, 2, 2, 8, 4)
	x := autograd.Constant(tensor.Randn(rng, 2, 4, 8, 2))
	y := m.Forward(x)
	if s := y.Shape(); s[0] != 2 || s[1] != 4 || s[2] != 8 || s[3] != 1 {
		t.Fatalf("PGTDCRNN output shape %v", s)
	}
}

// trainSteps runs a few optimization steps on a fixed batch and returns
// (initial loss, final loss).
func trainSteps(t *testing.T, m SeqModel, x, y *tensor.Tensor, steps int, lr float64) (float64, float64) {
	t.Helper()
	opt := NewAdam(m, lr)
	var first, last float64
	for i := 0; i < steps; i++ {
		out := m.Forward(autograd.Constant(x))
		loss := autograd.MAELoss(out, y)
		if i == 0 {
			first = loss.Value.Item()
		}
		last = loss.Value.Item()
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		ClipGradNorm(m, 5)
		opt.Step()
	}
	return first, last
}

func TestDCRNNTrainingReducesLoss(t *testing.T) {
	sup := testSupports(t, 6)
	rng := tensor.NewRNG(8)
	m := NewDCRNN(rng, sup, DCRNNConfig{In: 1, Hidden: 6, Layers: 1, K: 1, Horizon: 2})
	x := tensor.Randn(rng, 4, 3, 6, 1)
	y := tensor.Randn(rng, 4, 2, 6, 1).MulScalar(0.3)
	first, last := trainSteps(t, m, x, y, 25, 0.01)
	if last >= first {
		t.Fatalf("DCRNN loss did not decrease: %v -> %v", first, last)
	}
}

func TestPGTDCRNNTrainingReducesLoss(t *testing.T) {
	sup := testSupports(t, 6)
	rng := tensor.NewRNG(9)
	m := NewPGTDCRNN(rng, sup, 1, 1, 6, 3)
	x := tensor.Randn(rng, 4, 3, 6, 1)
	y := tensor.Randn(rng, 4, 3, 6, 1).MulScalar(0.3)
	first, last := trainSteps(t, m, x, y, 25, 0.01)
	if last >= first {
		t.Fatalf("PGTDCRNN loss did not decrease: %v -> %v", first, last)
	}
}

func TestA3TGCNForwardAndTraining(t *testing.T) {
	sup := testSupports(t, 6)
	rng := tensor.NewRNG(10)
	m := NewA3TGCN(rng, sup[0], 1, 8, 2)
	x := tensor.Randn(rng, 3, 4, 6, 1)
	y := tensor.Randn(rng, 3, 2, 6, 1).MulScalar(0.3)
	out := m.Forward(autograd.Constant(x))
	if s := out.Shape(); s[0] != 3 || s[1] != 2 || s[2] != 6 || s[3] != 1 {
		t.Fatalf("A3TGCN output shape %v", s)
	}
	first, last := trainSteps(t, m, x, y, 25, 0.01)
	if last >= first {
		t.Fatalf("A3TGCN loss did not decrease: %v -> %v", first, last)
	}
}

func TestSTLLMLiteForwardAndTraining(t *testing.T) {
	rng := tensor.NewRNG(11)
	m := NewSTLLMLite(rng, 6, 4, 1, 16, 2)
	x := tensor.Randn(rng, 3, 4, 6, 1)
	y := tensor.Randn(rng, 3, 2, 6, 1).MulScalar(0.3)
	out := m.Forward(autograd.Constant(x))
	if s := out.Shape(); s[0] != 3 || s[1] != 2 || s[2] != 6 || s[3] != 1 {
		t.Fatalf("STLLMLite output shape %v", s)
	}
	first, last := trainSteps(t, m, x, y, 25, 0.005)
	if last >= first {
		t.Fatalf("STLLMLite loss did not decrease: %v -> %v", first, last)
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Single parameter module.
	p := &Parameter{Name: "w", V: autograd.NewVariable(tensor.Full(5, 3))}
	mod := paramModule{p}
	opt := NewAdam(mod, 0.1)
	for i := 0; i < 400; i++ {
		loss := autograd.MSELoss(autograd.ScalarMul(p.V, 1), tensor.New(3))
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if math.Abs(p.Tensor().At(0)) > 1e-2 {
		t.Fatalf("Adam failed to minimize: %v", p.Tensor())
	}
}

// TestAdamRestoreMomentsIsAllOrNothing: a restore that fails validation —
// a negative step, or a length mismatch on a parameter after the first —
// must leave the moments and the step count as they were, not half-copied.
func TestAdamRestoreMomentsIsAllOrNothing(t *testing.T) {
	l := NewLinear(tensor.NewRNG(31), "l", 3, 2) // weight [3,2], bias [2]
	opt := NewAdam(l, 0.01)
	for i := 0; i < 3; i++ {
		loss := autograd.MSELoss(l.Forward(autograd.Constant(tensor.Randn(tensor.NewRNG(uint64(i)), 4, 3))), tensor.New(4, 2))
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	snapshot := func() (m, v [][]float64) {
		ms, vs := opt.Moments()
		for i := range ms {
			m = append(m, append([]float64{}, ms[i].Data()...))
			v = append(v, append([]float64{}, vs[i].Data()...))
		}
		return m, v
	}
	wantM, wantV := snapshot()
	fill := func(x float64) (m, v [][]float64) {
		for _, p := range l.Parameters() {
			n := p.Tensor().NumElements()
			m, v = append(m, make([]float64, n)), append(v, make([]float64, n))
			for j := 0; j < n; j++ {
				m[len(m)-1][j], v[len(v)-1][j] = x, x
			}
		}
		return m, v
	}
	negM, negV := fill(7)
	shortM, shortV := fill(7)
	shortV[1] = shortV[1][:1] // the bias, after the weight passed
	for name, c := range map[string]struct {
		m, v [][]float64
		step int
	}{
		"negative step":          {negM, negV, -1},
		"short second parameter": {shortM, shortV, 9},
	} {
		if err := opt.RestoreMoments(c.m, c.v, c.step); err == nil {
			t.Fatalf("%s: RestoreMoments accepted invalid state", name)
		}
		gotM, gotV := snapshot()
		for i := range wantM {
			for j := range wantM[i] {
				if gotM[i][j] != wantM[i][j] || gotV[i][j] != wantV[i][j] {
					t.Fatalf("%s: moment %d[%d] changed to %v/%v, want %v/%v", name, i, j, gotM[i][j], gotV[i][j], wantM[i][j], wantV[i][j])
				}
			}
		}
		if opt.StepCount() != 3 {
			t.Fatalf("%s: StepCount %d, want 3", name, opt.StepCount())
		}
	}
	// A valid restore still copies everything.
	okM, okV := fill(7)
	if err := opt.RestoreMoments(okM, okV, 9); err != nil {
		t.Fatal(err)
	}
	if gotM, _ := snapshot(); gotM[1][1] != 7 || opt.StepCount() != 9 {
		t.Fatalf("valid restore: moment %v, step %d", gotM[1][1], opt.StepCount())
	}
}

func TestSGDWithMomentum(t *testing.T) {
	p := &Parameter{Name: "w", V: autograd.NewVariable(tensor.Full(2, 4))}
	mod := paramModule{p}
	opt := NewSGD(mod, 0.05, 0.9)
	for i := 0; i < 200; i++ {
		loss := autograd.MSELoss(autograd.ScalarMul(p.V, 1), tensor.New(4))
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if math.Abs(p.Tensor().At(0)) > 1e-2 {
		t.Fatalf("SGD failed to minimize: %v", p.Tensor())
	}
}

type paramModule struct{ p *Parameter }

func (m paramModule) Parameters() []*Parameter { return []*Parameter{m.p} }

func TestClipGradNorm(t *testing.T) {
	p := &Parameter{Name: "w", V: autograd.NewVariable(tensor.New(4))}
	p.V.Grad = tensor.Full(3, 4) // norm = 6
	mod := paramModule{p}
	norm := ClipGradNorm(mod, 3)
	if math.Abs(norm-6) > 1e-12 {
		t.Fatalf("pre-clip norm %v want 6", norm)
	}
	var sq float64
	for _, v := range p.V.Grad.Data() {
		sq += v * v
	}
	if math.Abs(math.Sqrt(sq)-3) > 1e-12 {
		t.Fatalf("post-clip norm %v want 3", math.Sqrt(sq))
	}
	// Below threshold: unchanged.
	p.V.Grad = tensor.Full(0.1, 4)
	ClipGradNorm(mod, 3)
	if p.V.Grad.At(0) != 0.1 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestCopyParametersAndEquality(t *testing.T) {
	sup := testSupports(t, 6)
	a := NewPGTDCRNN(tensor.NewRNG(12), sup, 1, 1, 4, 2)
	b := NewPGTDCRNN(tensor.NewRNG(13), sup, 1, 1, 4, 2)
	if ParametersEqual(a, b, 0) {
		t.Fatal("different seeds must differ")
	}
	if err := CopyParameters(b, a); err != nil {
		t.Fatal(err)
	}
	if !ParametersEqual(a, b, 0) {
		t.Fatal("CopyParameters must make modules identical")
	}
	c := NewPGTDCRNN(tensor.NewRNG(14), sup, 1, 1, 8, 2)
	if err := CopyParameters(c, a); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestNumParametersAndBytes(t *testing.T) {
	l := NewLinear(tensor.NewRNG(15), "l", 3, 2)
	if NumParameters(l) != 3*2+2 {
		t.Fatalf("NumParameters %d", NumParameters(l))
	}
	if ParameterBytes(l) != 8*8 {
		t.Fatalf("ParameterBytes %d", ParameterBytes(l))
	}
}

func TestLRScalingRules(t *testing.T) {
	if ScaleLR(0.01, 8) != 0.08 {
		t.Fatal("linear scaling wrong")
	}
	if math.Abs(SqrtScaleLR(0.01, 4)-0.02) > 1e-12 {
		t.Fatal("sqrt scaling wrong")
	}
	if ScaleLR(0.01, 0) != 0.01 {
		t.Fatal("scaling must clamp workers to >= 1")
	}
}

func TestDeterministicForward(t *testing.T) {
	sup := testSupports(t, 6)
	x := tensor.Randn(tensor.NewRNG(20), 2, 3, 6, 1)
	a := NewPGTDCRNN(tensor.NewRNG(21), sup, 1, 1, 4, 3).Forward(autograd.Constant(x))
	b := NewPGTDCRNN(tensor.NewRNG(21), sup, 1, 1, 4, 3).Forward(autograd.Constant(x))
	if !a.Value.Equal(b.Value) {
		t.Fatal("same seed must give identical forward passes")
	}
}

func TestZeroGrads(t *testing.T) {
	l := NewLinear(tensor.NewRNG(22), "l", 2, 2)
	out := l.Forward(autograd.NewVariable(tensor.Ones(3, 2)))
	if err := autograd.Backward(autograd.MeanAll(out)); err != nil {
		t.Fatal(err)
	}
	if l.Weight.V.Grad == nil {
		t.Fatal("expected gradient")
	}
	ZeroGrads(l)
	if l.Weight.V.Grad != nil {
		t.Fatal("ZeroGrads must clear gradients")
	}
}
