package autograd

import (
	"testing"

	"pgti/internal/parallel"
	"pgti/internal/tensor"
)

// TestArenaOpsMatchHeapAcrossWorkers: every op over an arena leaf returns
// the heap value and hands its leaves the heap gradients, bit for bit, with
// the row kernels fanned out over several workers (LayerNorm's backward
// takes one partial per chunk from the arena, before the fan-out: an Arena
// serves one goroutine, which -race checks here).
func TestArenaOpsMatchHeapAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	rng := tensor.NewRNG(17)
	x, gammaV, betaV := tensor.Randn(rng, 512, 16), tensor.Randn(rng, 16), tensor.Randn(rng, 16)
	w := tensor.Randn(rng, 16, 16)
	run := func(ar *tensor.Arena) (float64, []*tensor.Tensor) {
		gamma, beta, wv := NewVariable(gammaV), NewVariable(betaV), NewVariable(w)
		h := LayerNorm(ConstantIn(ar, x), gamma, beta, 1e-5)
		att := Softmax(Reshape(MatMul(h, wv), 8, 64, 16))
		out := Sigmoid(Add(ScalarMul(Relu(Reshape(att, 512, 16)), 0.5), Tanh(h)))
		loss := MAELoss(out, tensor.Randn(tensor.NewRNG(3), 512, 16))
		if err := Backward(loss); err != nil {
			t.Fatal(err)
		}
		return loss.Value.Item(), []*tensor.Tensor{gamma.Grad, beta.Grad, wv.Grad}
	}
	var ar tensor.Arena
	wantLoss, want := run(nil)
	for cycle := 0; cycle < 2; cycle++ {
		ar.Reset()
		gotLoss, got := run(&ar)
		if gotLoss != wantLoss {
			t.Fatalf("cycle %d: arena loss %v, heap %v", cycle, gotLoss, wantLoss)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("cycle %d: leaf %d gradient differs", cycle, i)
			}
		}
	}
}
