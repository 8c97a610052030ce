package shard

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"pgti/internal/autograd"
	"pgti/internal/tensor"
)

// TestArenaGridBitwise: the worker's step arena is invisible to training.
// A 2x2 grid with prefetch and one under the stale gradient schedule train
// the same curves, modeled clocks and final parameters, bit for bit, with
// their activations and gradients in each worker's arena as on the heap.
func TestArenaGridBitwise(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	run := func(cfg Config, heap bool) *Result {
		if heap {
			defer func(f func() *tensor.Arena) { newStepArena = f }(newStepArena)
			newStepArena = func() *tensor.Arena { return nil }
		}
		res, err := Train(data, split, g, supports, pipelineModel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := Config{Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond }}
	prefetch, stale := base, base
	prefetch.Prefetch = true
	prefetch.AssembleCost = func(items int) time.Duration { return time.Duration(items) * 100 * time.Microsecond }
	stale.Staleness, stale.Net = 2, pipelineNet()
	for name, cfg := range map[string]Config{"2x2 prefetch": prefetch, "2x2 staleness 2": stale} {
		want, got := run(cfg, true), run(cfg, false)
		if len(got.Curve) != len(want.Curve) || got.VirtualTime != want.VirtualTime {
			t.Fatalf("%s: %d epochs at %v with arenas, %d at %v without", name, len(got.Curve), got.VirtualTime, len(want.Curve), want.VirtualTime)
		}
		for i := range want.Curve {
			if got.Curve[i] != want.Curve[i] {
				t.Fatalf("%s epoch %d: arena curve %+v, heap curve %+v", name, i, got.Curve[i], want.Curve[i])
			}
		}
		wp, gp := want.Model.Parameters(), got.Model.Parameters()
		for i := range wp {
			if !gp[i].Tensor().Equal(wp[i].Tensor()) {
				t.Fatalf("%s: %s differs", name, wp[i].Name)
			}
		}
	}
}

// TestFitReleasesArena: a worker's arena lives as long as the worker, so
// nothing of it is reachable once Train returns: its slabs are collected.
func TestFitReleasesArena(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	for _, grid := range []struct{ shards, replicas int }{{1, 1}, {2, 2}} {
		var mu sync.Mutex // every worker computes its loss on its own goroutine
		var slabs []weak.Pointer[float64]
		cfg := Config{Shards: grid.shards, Replicas: grid.replicas, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
			Loss: func(pred *autograd.Variable, target *tensor.Tensor) *autograd.Variable {
				mu.Lock()
				slabs = append(slabs, weak.Make(&pred.Value.Data()[0])) // a Stack output: arena storage
				mu.Unlock()
				return autograd.MAELoss(pred, target)
			}}
		res, err := Train(data, split, g, supports, pipelineModel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Storage the arena hands out again comes back at the same address.
		if !slices.ContainsFunc(slabs[1:], func(p weak.Pointer[float64]) bool { return p == slabs[0] }) {
			t.Fatalf("%dx%d: no two steps' predictions share storage: not arena-backed", grid.shards, grid.replicas)
		}
		runtime.GC()
		runtime.GC()
		for _, slab := range slabs {
			if slab.Value() != nil {
				t.Fatalf("%dx%d: an arena slab is still reachable after Train returned", grid.shards, grid.replicas)
			}
		}
		runtime.KeepAlive(res)
	}
}
