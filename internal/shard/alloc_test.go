package shard

import (
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/ddp"
	"pgti/internal/graph"
	"pgti/internal/nn"
	"pgti/internal/parallel"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// TestTrainerOverheadAllocationCeiling holds what the trainer allocates per
// worker step on top of the model's own forward + backward + Adam step, at
// the shapes of nn's TestTrainingStepAllocationCeiling (22 nodes, 2
// features, hidden 16, K 2, batch 8, 12 steps). Two runs that differ only in
// their number of training steps isolate the per-step cost from set-up,
// evaluation and teardown; the bare step, measured here on the same shapes,
// is subtracted. Before the trainer became a worker with one gradient
// schedule per run, the overhead was 40 allocations per step on the 1x1
// grid (no prefetch) and 45 per worker step on the 1x2 grid (bucketed
// ring); each ceiling is that figure plus 10 %.
func TestTrainerOverheadAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("trains ~50 full-size steps")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	g, err := graph.RoadNetwork(1, 22, 6)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 2, 2, 16, 12)
	}
	data, err := batching.NewIndexDataset(tensor.Randn(tensor.NewRNG(7), 150, 22, 2), 12, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}

	bare := bareStepAllocs(t, factory(6, nn.WrapSupports(supports)))
	for _, tc := range []struct {
		name     string
		replicas int
		ceiling  float64
	}{
		{"1x1", 1, 44},
		{"1x2-bucketed", 2, 49.5},
	} {
		// trainAllocs runs one epoch of `steps` steps per replica with one
		// validation batch.
		trainAllocs := func(steps int) float64 {
			n := steps * 8 * tc.replicas
			split := batching.Split{Train: seq(0, n), Val: seq(n, n+8)}
			cfg := Config{Shards: 1, Replicas: tc.replicas, BatchSize: 8, Epochs: 1, LR: 0.01, Seed: 6, Algo: ddp.GradAlgoRing}
			return testing.AllocsPerRun(1, func() {
				if _, err := Train(data, split, g, supports, factory, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		const short, long = 2, 6
		perStep := (trainAllocs(long) - trainAllocs(short)) / float64((long-short)*tc.replicas)
		overhead := perStep - bare
		t.Logf("%s: %.1f allocations per worker step, %.1f of them the trainer's (ceiling %.1f)", tc.name, perStep, overhead, tc.ceiling)
		if overhead > tc.ceiling {
			t.Errorf("%s: the trainer adds %.1f allocations per worker step, ceiling %.1f", tc.name, overhead, tc.ceiling)
		}
	}
}

// bareStepAllocs is one forward + backward + Adam step of model with no
// trainer around it, on a batch of the test's shapes.
func bareStepAllocs(t *testing.T, model nn.SeqModel) float64 {
	opt := nn.NewAdam(model, 0.01)
	rng := tensor.NewRNG(7)
	x := tensor.Randn(rng, 8, 12, 22, 2)
	y := tensor.Randn(rng, 8, 12, 22, 1)
	return testing.AllocsPerRun(3, func() {
		loss := autograd.MAELoss(model.Forward(autograd.Constant(x)), y)
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	})
}

// seq returns [lo, hi).
func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
