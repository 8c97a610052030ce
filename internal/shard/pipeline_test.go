package shard

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/device"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/tensor"
)

// pipelineModel is the small hybrid model the pipeline suite trains.
func pipelineModel(seed uint64, props []nn.Propagator) nn.SeqModel {
	return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 6, 3)
}

// pipelineNet is the slow fabric the staleness timing checks run under.
func pipelineNet() cluster.NetworkModel {
	return cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond}
}

// TestPrefetchMatchesSerialBitwise: the double-buffered collator must be
// invisible to training — curves bitwise equal to the serial path across
// shard counts and replica grids, with and without a modeled assembly cost
// (the cost moves the clock, never the numbers).
func TestPrefetchMatchesSerialBitwise(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	run := func(shards, replicas int, prefetch bool, asm func(int) time.Duration) metrics.Curve {
		res, err := Train(data, split, g, supports, pipelineModel, Config{
			Shards: shards, Replicas: replicas,
			BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
			Prefetch: prefetch, AssembleCost: asm,
		})
		if err != nil {
			t.Fatalf("%dx%d prefetch=%v: %v", shards, replicas, prefetch, err)
		}
		return res.Curve
	}
	asm := func(items int) time.Duration { return time.Duration(items) * 100 * time.Microsecond }
	for _, grid := range []struct{ shards, replicas int }{{2, 1}, {4, 1}, {2, 2}, {4, 2}} {
		serial := run(grid.shards, grid.replicas, false, nil)
		for _, cost := range []func(int) time.Duration{nil, asm} {
			pipelined := run(grid.shards, grid.replicas, true, cost)
			if len(pipelined) != len(serial) {
				t.Fatalf("%dx%d: curve length %d vs %d", grid.shards, grid.replicas, len(pipelined), len(serial))
			}
			for i := range serial {
				if pipelined[i] != serial[i] {
					t.Fatalf("%dx%d epoch %d: prefetch curve %+v != serial %+v",
						grid.shards, grid.replicas, i, pipelined[i], serial[i])
				}
			}
		}
	}
}

// TestPrefetchHidesAssembly: with a modeled collation cost, the serial path
// pays it ahead of every step while the pipeline exposes only the epoch's
// leading assembly — the modeled epoch must shrink, and the shrinkage must
// approach (steps-1) assemblies when assembly fits under the step.
func TestPrefetchHidesAssembly(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	// Flat per-batch cost: the ragged tail batch would otherwise make the
	// exact-hiding arithmetic below depend on the split's batch sizes.
	asm := func(int) time.Duration { return time.Millisecond }
	run := func(prefetch bool) *Result {
		res, err := Train(data, split, g, supports, pipelineModel, Config{
			Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 9,
			ComputeCost:  func(int) time.Duration { return 2 * time.Millisecond },
			AssembleCost: asm, Prefetch: prefetch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(false)
	pipelined := run(true)
	if pipelined.VirtualTime >= serial.VirtualTime {
		t.Fatalf("prefetch did not shrink the modeled epoch: %v vs serial %v",
			pipelined.VirtualTime, serial.VirtualTime)
	}
	// Assembly (1ms per batch) fits under the 2ms step, so the pipeline
	// should hide all but the leading one.
	perBatch := asm(4)
	hidden := serial.VirtualTime - pipelined.VirtualTime
	if want := time.Duration(serial.Steps-1) * perBatch; hidden != want {
		t.Fatalf("pipeline hid %v of assembly, want %v (%d steps x %v)",
			hidden, want, serial.Steps-1, perBatch)
	}
	for i := range serial.Curve {
		if serial.Curve[i] != pipelined.Curve[i] {
			t.Fatalf("epoch %d: modeled costs changed the curve: %+v vs %+v",
				i, pipelined.Curve[i], serial.Curve[i])
		}
	}
}

// TestStalenessZeroMatchesSynchronous: Staleness 0 must short-circuit to
// the synchronous schedule — bitwise, including the modeled clock.
func TestStalenessZeroMatchesSynchronous(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	run := func(k int) *Result {
		res, err := Train(data, split, g, supports, pipelineModel, Config{
			Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
			Net:         pipelineNet(),
			ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
			Staleness:   k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sync := run(0)
	zero := run(0)
	for i := range sync.Curve {
		if sync.Curve[i] != zero.Curve[i] {
			t.Fatalf("epoch %d: K=0 curve %+v != synchronous %+v", i, zero.Curve[i], sync.Curve[i])
		}
	}
	if sync.VirtualTime != zero.VirtualTime || sync.Steps != zero.Steps {
		t.Fatalf("K=0 accounting differs: %v/%v virt, %d/%d steps",
			zero.VirtualTime, sync.VirtualTime, zero.Steps, sync.Steps)
	}
	if _, err := Train(data, split, g, supports, pipelineModel, Config{
		Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 5, Staleness: -1,
	}); err == nil {
		t.Fatal("negative staleness bound must be rejected")
	}
}

// TestStalenessBoundedAndConsistent: under K > 0 the delayed,
// error-compensated schedule must keep every replica bitwise identical
// (Train's built-in checksum collective fails the run otherwise), apply
// exactly one update per step (the queue drains at epoch ends), stay
// finite, and never lengthen the modeled epoch versus the synchronous
// schedule under an expensive fabric.
func TestStalenessBoundedAndConsistent(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	run := func(k int) *Result {
		res, err := Train(data, split, g, supports, pipelineModel, Config{
			Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
			Net:         pipelineNet(),
			ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
			Staleness:   k,
		})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		return res
	}
	sync := run(0)
	for _, k := range []int{1, 2, 4} {
		stale := run(k)
		if stale.Steps != sync.Steps {
			t.Fatalf("K=%d: %d steps vs synchronous %d (drain lost or duplicated updates)",
				k, stale.Steps, sync.Steps)
		}
		if len(stale.Curve) != len(sync.Curve) {
			t.Fatalf("K=%d: curve length %d vs %d", k, len(stale.Curve), len(sync.Curve))
		}
		for i, rec := range stale.Curve {
			if math.IsNaN(rec.TrainMAE) || math.IsInf(rec.TrainMAE, 0) ||
				math.IsNaN(rec.ValMAE) || math.IsInf(rec.ValMAE, 0) {
				t.Fatalf("K=%d epoch %d: non-finite curve %+v", k, i, rec)
			}
		}
		if stale.VirtualTime > sync.VirtualTime {
			t.Fatalf("K=%d: staleness lengthened the modeled run: %v vs synchronous %v",
				k, stale.VirtualTime, sync.VirtualTime)
		}
	}
}

// TestPrefetchCancellationDrains: cancelling mid-run with the pipeline on
// must drain the per-rank collators — the grid returns the partial curve
// and no prefetch goroutine outlives Train.
func TestPrefetchCancellationDrains(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Train(data, split, g, supports, pipelineModel, Config{
		Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 6, LR: 0.02, Seed: 5,
		Prefetch: true, Ctx: ctx,
		OnEpoch: func(rec metrics.EpochRecord) {
			if rec.Epoch == 0 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("run did not report cancellation")
	}
	if len(res.Curve) != 1 {
		t.Fatalf("partial curve has %d epochs, want 1", len(res.Curve))
	}
	// The next epoch's collators were already streaming when the grid
	// agreed to stop; Close must have reaped them all.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before Train, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestFeedAndLossSeams: the seams the single-GPU strategies enter the trainer
// through. A materialized standard source trains like any other; a Feed.Device
// charges each batch's pageable copy inline (exposed, ahead of the step),
// holds its bytes on the device tracker for exactly that step, and leaves the
// curve alone; a custom Loss replaces the objective and the reported metric.
func TestFeedAndLossSeams(t *testing.T) {
	g, supports := testGraph(t, 12)
	std, err := batching.StandardPreprocess(tensor.Randn(tensor.NewRNG(21), 90, g.N, 1), 3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	split := batching.MakeSplit(std.NumSnapshots(), 0.7, 0.1)
	base := Config{
		Shards: 1, Replicas: 1, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	}
	run := func(cfg Config) *Result {
		res, err := Train(std, split, g, supports, pipelineModel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(base)

	dev := device.NewGPU("gpu", 0)
	staged := base
	staged.Feed.Device = dev
	res := run(staged)
	if !reflect.DeepEqual(res.Curve, plain.Curve) {
		t.Errorf("the H2D charge moved the curve")
	}
	pairBytes := int64(2 * 3 * g.N * 8)
	var h2d time.Duration
	for _, b := range batching.Batches(split.Train, base.BatchSize) {
		h2d += time.Duration(base.Epochs) * dev.TransferTime(int64(len(b))*pairBytes)
	}
	if res.CommTime != h2d || res.VirtualTime-plain.VirtualTime != h2d || res.CommExposedIntra != h2d {
		t.Errorf("H2D charge: comm %v, clock +%v, intra %v, want %v", res.CommTime, res.VirtualTime-plain.VirtualTime, res.CommExposedIntra, h2d)
	}
	if dev.Mem.Peak() != int64(base.BatchSize)*pairBytes || dev.Mem.Current() != 0 {
		t.Errorf("device holds %d B after the run (peak %d), want 0 (one batch, %d)", dev.Mem.Current(), dev.Mem.Peak(), int64(base.BatchSize)*pairBytes)
	}
	staged.Feed.Remote = true
	if _, err := Train(std, split, g, supports, pipelineModel, staged); err == nil {
		t.Errorf("Feed with both Remote and Device was accepted")
	}

	squared := base
	squared.Loss = autograd.MSELoss
	if got := run(squared); reflect.DeepEqual(got.Curve, plain.Curve) {
		t.Errorf("a custom loss left the curve untouched")
	}
}
