package autograd_test

import (
	"math"
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/graph"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// TestModelGradientsOwnTheirStorage: after one backward pass through each
// of the paper's models, every parameter's gradient is the only reference
// to its storage — none aliases another parameter's gradient, and none
// aliases a forward value (an op whose backward returned a captured
// activation would hand the optimizer the model's activations as scratch).
// paperModels builds the paper's four models on a 6-node road graph, each
// over 4 input steps of 2 features and a 4-step horizon.
func paperModels(t *testing.T) map[string]func(rng *tensor.RNG) nn.SeqModel {
	t.Helper()
	g, err := graph.RoadNetwork(11, paperNodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	sup := []*sparse.CSR{fwd, bwd}
	return map[string]func(rng *tensor.RNG) nn.SeqModel{
		"PGTDCRNN": func(rng *tensor.RNG) nn.SeqModel { return nn.NewPGTDCRNN(rng, sup, 2, 2, 8, 4) },
		"DCRNN": func(rng *tensor.RNG) nn.SeqModel {
			return nn.NewDCRNN(rng, sup, nn.DCRNNConfig{In: 2, Hidden: 8, Layers: 2, K: 2, Horizon: 4})
		},
		"A3TGCN":      func(rng *tensor.RNG) nn.SeqModel { return nn.NewA3TGCN(rng, fwd, 2, 8, 4) },
		"ST-LLM-lite": func(rng *tensor.RNG) nn.SeqModel { return nn.NewSTLLMLite(rng, paperNodes, 4, 2, 16, 4) },
	}
}

const paperNodes = 6

func TestModelGradientsOwnTheirStorage(t *testing.T) {
	for name, build := range paperModels(t) {
		rng := tensor.NewRNG(21)
		model := build(rng)
		x := tensor.Randn(rng, 3, 4, paperNodes, 2)
		y := tensor.Randn(rng, 3, 4, paperNodes, 1)
		loss := autograd.MAELoss(model.Forward(autograd.Constant(x)), y)
		if err := autograd.Backward(loss); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		values := autograd.GraphValues(loss)
		params := model.Parameters()
		for i, p := range params {
			if p.V.Grad == nil {
				t.Fatalf("%s: %s has no gradient", name, p.Name)
			}
			if !p.V.Grad.SpansStorage() {
				t.Errorf("%s: %s's gradient is a view into a larger buffer", name, p.Name)
			}
			if p.V.Grad.SharesStorage(loss.Grad) {
				t.Errorf("%s: %s's gradient aliases the loss's", name, p.Name)
			}
			for _, q := range params[:i] {
				if p.V.Grad.SharesStorage(q.V.Grad) {
					t.Errorf("%s: %s and %s share gradient storage", name, q.Name, p.Name)
				}
			}
			for _, v := range values {
				if p.V.Grad.SharesStorage(v) {
					t.Errorf("%s: %s's gradient aliases a forward value of shape %v", name, p.Name, v.Shape())
				}
			}
		}
	}
}

// TestNoGradForwardBuildsNoTape: a forward whose input comes through
// NoGrad runs over parameters that require gradients yet records nothing —
// its output is a leaf that requires no gradient, Backward through it is a
// no-op — and its values are bitwise those of the recorded forward.
func TestNoGradForwardBuildsNoTape(t *testing.T) {
	for name, build := range paperModels(t) {
		rng := tensor.NewRNG(22)
		model := build(rng)
		x := tensor.Randn(rng, 3, 4, paperNodes, 2)
		y := tensor.Randn(rng, 3, 4, paperNodes, 1)
		recorded := model.Forward(autograd.Constant(x))
		if recorded.IsLeaf() || !recorded.RequiresGrad() {
			t.Fatalf("%s: the recorded forward built no tape", name)
		}
		free := model.Forward(autograd.NoGrad(x))
		if !free.IsLeaf() || free.RequiresGrad() {
			t.Fatalf("%s: the no-grad forward built a node (leaf %v, requires grad %v)", name, free.IsLeaf(), free.RequiresGrad())
		}
		want, got := recorded.Value.Contiguous().Data(), free.Value.Contiguous().Data()
		if !recorded.Value.SameShape(free.Value) {
			t.Fatalf("%s: shape %v, recorded %v", name, free.Shape(), recorded.Shape())
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d is %v, recorded %v", name, i, got[i], want[i])
			}
		}
		loss := autograd.MAELoss(free, y)
		if !loss.IsLeaf() || loss.RequiresGrad() {
			t.Fatalf("%s: a loss over the no-grad forward built a node", name)
		}
		if err := autograd.Backward(loss); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := autograd.BackwardWithGrad(free, tensor.FullLike(1, free.Value)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if free.Grad != nil || loss.Grad != nil {
			t.Fatalf("%s: Backward seeded a no-grad output", name)
		}
		for _, p := range model.Parameters() {
			if p.V.Grad != nil {
				t.Fatalf("%s: Backward through the no-grad forward reached %s", name, p.Name)
			}
		}
	}
}
