package nn

import (
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/graph"
	"pgti/internal/parallel"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// TestTrainingStepAllocationCeiling holds one PGT-DCRNN forward + backward +
// Adam step at the host benchmark's fit-index shapes (22 nodes, hidden 16,
// K 2, batch 8, 12 steps) under an allocation ceiling, so that a regression
// of the copy-free backward fails `go test` and not only the benchmark. The
// step made 69 085 allocations before the backward pass stopped copying,
// 7 010 once it did, and makes 6 890 now that MatMulNT copies bᵀ while the
// Sigmoid/Tanh backward and the GRU's 1-u are one op each (root
// BenchmarkTrainingStepFitIndex is the same step). The ceiling is that count
// plus 2 %: room for small changes, not for a per-row loop or a per-gradient
// clone coming back.
func TestTrainingStepAllocationCeiling(t *testing.T) {
	const ceiling = 7030
	g, err := graph.RoadNetwork(1, 22, 6)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	model := NewPGTDCRNN(tensor.NewRNG(6), []*sparse.CSR{fwd, bwd}, 2, 2, 16, 12)
	opt := NewAdam(model, 0.01)
	rng := tensor.NewRNG(7)
	x := tensor.Randn(rng, 8, 12, 22, 2)
	y := tensor.Randn(rng, 8, 12, 22, 1)
	// One worker: a wider pool spends allocations on fan-out that this test
	// is not about, and how many depends on the machine.
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	got := testing.AllocsPerRun(3, func() {
		loss := autograd.MAELoss(model.Forward(autograd.Constant(x)), y)
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	})
	if got > ceiling {
		t.Fatalf("one training step makes %.0f allocations, ceiling %d", got, ceiling)
	}
	t.Logf("one training step: %.0f allocations (ceiling %d)", got, ceiling)
}
