package nn

import (
	"math"
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/tensor"
)

// TestArenaStepBitwise: a training step whose activations and gradients
// come from a tensor.Arena, reset at the top of every step, is the heap
// step bit for bit, in the loss, every parameter gradient and every
// parameter after Adam, over several steps and for every model family; so
// is a no-tape forward over the arena. Under the arenapoison build tag every
// uninitialised element the arena hands out is NaN, so a kernel that reads
// storage it did not write fails here.
func TestArenaStepBitwise(t *testing.T) {
	const n = 6
	sup := testSupports(t, n)
	for _, tc := range []struct {
		name  string
		build func(rng *tensor.RNG) SeqModel
		in    int
	}{
		{"PGT-DCRNN", func(rng *tensor.RNG) SeqModel { return NewPGTDCRNN(rng, sup, 2, 2, 8, 4) }, 2},
		{"DCRNN", func(rng *tensor.RNG) SeqModel {
			return NewDCRNN(rng, sup, DCRNNConfig{In: 2, Hidden: 8, Layers: 2, K: 2, Horizon: 3})
		}, 2},
		{"A3T-GCN", func(rng *tensor.RNG) SeqModel { return NewA3TGCN(rng, sup[0], 2, 8, 3) }, 2},
		{"ST-LLM-lite", func(rng *tensor.RNG) SeqModel { return NewSTLLMLite(rng, n, 4, 2, 16, 2) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap, arena := tc.build(tensor.NewRNG(3)), tc.build(tensor.NewRNG(3))
			heapOpt, arenaOpt := NewAdam(heap, 0.01), NewAdam(arena, 0.01)
			var ar tensor.Arena
			rng := tensor.NewRNG(4)
			for step := 0; step < 3; step++ {
				x := tensor.Randn(rng, 3, 4, n, tc.in)
				y := tensor.Randn(rng, 3, heap.OutSteps(), n, 1)
				ar.Reset()
				want := autograd.MAELoss(heap.Forward(autograd.Constant(x)), y)
				got := autograd.MAELoss(arena.Forward(autograd.ConstantIn(&ar, x)), y)
				if err := autograd.Backward(want); err != nil {
					t.Fatal(err)
				}
				if err := autograd.Backward(got); err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Value.Item()) != math.Float64bits(want.Value.Item()) {
					t.Fatalf("step %d: arena loss %v, heap loss %v", step, got.Value.Item(), want.Value.Item())
				}
				hp, ap := heap.Parameters(), arena.Parameters()
				for i := range hp {
					if !ap[i].V.Grad.Equal(hp[i].V.Grad) {
						t.Fatalf("step %d: %s gradient differs", step, hp[i].Name)
					}
				}
				heapOpt.Step()
				arenaOpt.Step()
				for i := range hp {
					if !ap[i].Tensor().Equal(hp[i].Tensor()) {
						t.Fatalf("step %d: %s differs after Adam", step, hp[i].Name)
					}
				}
				ar.Reset()
				if !arena.Forward(autograd.NoGradIn(&ar, x)).Value.Equal(heap.Forward(autograd.NoGrad(x)).Value) {
					t.Fatalf("step %d: no-tape arena forward differs", step)
				}
			}
		})
	}
}

// TestArenaLeafGradientsAreHeap: a leaf's gradient from an arena pass is a
// heap copy, so the next Reset cannot reach it; the optimizer, clipping and
// the stale schedule read it after the step.
func TestArenaLeafGradientsAreHeap(t *testing.T) {
	sup := testSupports(t, 6)
	model, other := NewPGTDCRNN(tensor.NewRNG(3), sup, 2, 2, 8, 4), NewPGTDCRNN(tensor.NewRNG(3), sup, 2, 2, 8, 4)
	var ar tensor.Arena
	x := tensor.Randn(tensor.NewRNG(4), 2, 4, 6, 2)
	y := tensor.Randn(tensor.NewRNG(5), 2, 4, 6, 1)
	step := func(m SeqModel, x *tensor.Tensor) {
		ar.Reset()
		if err := autograd.Backward(autograd.MAELoss(m.Forward(autograd.ConstantIn(&ar, x)), y)); err != nil {
			t.Fatal(err)
		}
	}
	step(other, x) // grows the slab the next two steps share
	step(model, x)
	var saved []*tensor.Tensor
	for _, p := range model.Parameters() {
		saved = append(saved, p.V.Grad.Clone())
	}
	step(other, x.MulScalar(-3)) // overwrites the slab
	for i, p := range model.Parameters() {
		if !p.V.Grad.Equal(saved[i]) {
			t.Fatalf("%s: gradient changed after the arena was reused", p.Name)
		}
	}
}
