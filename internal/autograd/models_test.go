package autograd_test

import (
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
func TestModelGradientsOwnTheirStorage(t *testing.T) {
	const nodes = 6
	g, err := graph.RoadNetwork(11, nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	sup := []*sparse.CSR{fwd, bwd}
	for name, build := range map[string]func(rng *tensor.RNG) nn.SeqModel{
		"PGTDCRNN": func(rng *tensor.RNG) nn.SeqModel { return nn.NewPGTDCRNN(rng, sup, 2, 2, 8, 4) },
		"DCRNN": func(rng *tensor.RNG) nn.SeqModel {
			return nn.NewDCRNN(rng, sup, nn.DCRNNConfig{In: 2, Hidden: 8, Layers: 2, K: 2, Horizon: 4})
		},
		"A3TGCN":      func(rng *tensor.RNG) nn.SeqModel { return nn.NewA3TGCN(rng, fwd, 2, 8, 4) },
		"ST-LLM-lite": func(rng *tensor.RNG) nn.SeqModel { return nn.NewSTLLMLite(rng, nodes, 4, 2, 16, 4) },
	} {
		rng := tensor.NewRNG(21)
		model := build(rng)
		x := tensor.Randn(rng, 3, 4, nodes, 2)
		y := tensor.Randn(rng, 3, 4, nodes, 1)
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
