package nn

import (
	"runtime"
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/graph"
	"pgti/internal/parallel"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// fitIndexStep builds a PGT-DCRNN and one batch at the host benchmark's
// fit-index shapes (22 nodes, hidden 16, K 2, batch 8, 12 steps), on one
// worker: a wider pool spends allocations on fan-out that the allocation
// tests are not about, and how many depends on the machine.
func fitIndexStep(t *testing.T) (model *PGTDCRNN, x, y *tensor.Tensor) {
	t.Helper()
	g, err := graph.RoadNetwork(1, 22, 6)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	model = NewPGTDCRNN(tensor.NewRNG(6), []*sparse.CSR{fwd, bwd}, 2, 2, 16, 12)
	rng := tensor.NewRNG(7)
	prev := parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	return model, tensor.Randn(rng, 8, 12, 22, 2), tensor.Randn(rng, 8, 12, 22, 1)
}

// TestTrainingStepAllocationCeiling holds one PGT-DCRNN forward + backward +
// Adam step at fitIndexStep's shapes under an allocation ceiling, so that a
// regression of the copy-free backward or of the one-allocation tape node
// fails `go test` and not only the benchmark. The step made 69 085
// allocations before the backward pass stopped copying, 7 010 once it did,
// 6 890 once MatMulNT copied bᵀ while the Sigmoid/Tanh backward and the
// GRU's 1-u became one op each, and makes 5 713 now that a recorded op is
// one node holding its inputs and the engine owns the gradient slice (root
// BenchmarkTrainingStepFitIndex is the same step). The ceiling is that
// count plus 2 %: room for small changes, not for a per-row loop, a
// per-gradient clone or a per-op slice coming back.
func TestTrainingStepAllocationCeiling(t *testing.T) {
	const ceiling = 5827
	model, x, y := fitIndexStep(t)
	opt := NewAdam(model, 0.01)
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

// TestInferenceForwardAllocationCeiling holds the 8-window forward of
// fitIndexStep's model with no tape — the forward behind validation,
// Predictor and every serve replica — under an allocation ceiling. It made
// 3 756 allocations while that forward recorded a tape nothing walked, and
// makes 2 591 now that its input comes through autograd.NoGrad; the
// ceiling is that count plus 2 %, so a closure, an inputs slice or a node
// built ahead of the no-grad check fails here.
func TestInferenceForwardAllocationCeiling(t *testing.T) {
	const ceiling = 2643
	model, x, _ := fitIndexStep(t)
	got := testing.AllocsPerRun(3, func() { model.Forward(autograd.NoGrad(x)) })
	if got > ceiling {
		t.Fatalf("one 8-window forward with no tape makes %.0f allocations, ceiling %d", got, ceiling)
	}
	t.Logf("one 8-window forward with no tape: %.0f allocations (ceiling %d)", got, ceiling)
}

// TestTrainingStepArenaAllocationCeiling is TestTrainingStepAllocationCeiling
// with the step's activations and gradients in a warm tensor.Arena, reset at
// the top of each step, as every shard worker runs it. The heap step
// allocates 33.7 MB in 5 616 allocations; this one makes 2 688 allocations
// of 580 kB: tape nodes, backward and kernel closures, the headers of views
// of heap tensors and the parameters' heap gradients. The count's ceiling is
// that figure plus 2 %, the bytes' 2 MB.
func TestTrainingStepArenaAllocationCeiling(t *testing.T) {
	const ceiling, byteCeiling = 2742, 2 << 20
	model, x, y := fitIndexStep(t)
	opt := NewAdam(model, 0.01)
	var ar tensor.Arena
	step := func() {
		ar.Reset()
		loss := autograd.MAELoss(model.Forward(autograd.ConstantIn(&ar, x)), y)
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	step() // grows the arena
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(3, step)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 4 // AllocsPerRun's warm-up call and its 3 runs
	if got > ceiling || bytes > byteCeiling {
		t.Fatalf("one arena training step makes %.0f allocations of %.0f B, ceilings %d and %d", got, bytes, ceiling, byteCeiling)
	}
	t.Logf("one arena training step: %.0f allocations of %.0f B (ceilings %d and %d)", got, bytes, ceiling, byteCeiling)
}
