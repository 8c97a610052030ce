// Benchmarks regenerating every table and figure of the paper (run with
// `go test -bench=. -benchmem`), plus ablation micro-benchmarks for the
// design choices DESIGN.md calls out: view-based vs copy-based snapshot
// assembly, ring vs naive AllReduce, index vs standard preprocessing, the
// three shuffling strategies, and the parallel sparse/dense kernels.
package pgti

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/experiments"
	"pgti/internal/fault"
	"pgti/internal/graph"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/parallel"
	"pgti/internal/perfmodel"
	"pgti/internal/shard"
	"pgti/internal/sparse"
	"pgti/internal/stream"
	"pgti/internal/tensor"

	"pgti/internal/autograd"
)

// benchOpts are quiet, quick experiment options for benchmarking.
var benchOpts = experiments.Options{Out: io.Discard, Quick: true, Seed: 42}

// runExperiment benches one full experiment regeneration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table/figure -----------------------------------

func BenchmarkTable1DatasetSizes(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkTable2CaseStudy(b *testing.B)          { runExperiment(b, "table2") }
func BenchmarkTable3BaseVsIndex(b *testing.B)        { runExperiment(b, "table3") }
func BenchmarkTable4GPUIndex(b *testing.B)           { runExperiment(b, "table4") }
func BenchmarkTable5Shuffling(b *testing.B)          { runExperiment(b, "table5") }
func BenchmarkTable6A3TGCN(b *testing.B)             { runExperiment(b, "table6") }
func BenchmarkFig2MemoryCurves(b *testing.B)         { runExperiment(b, "fig2") }
func BenchmarkFig3DataGrowth(b *testing.B)           { runExperiment(b, "fig3") }
func BenchmarkFig5AccuracyCurves(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkFig6PeMSMemory(b *testing.B)           { runExperiment(b, "fig6") }
func BenchmarkFig7ScalingStudy(b *testing.B)         { runExperiment(b, "fig7") }
func BenchmarkFig8AccuracyVsGPUs(b *testing.B)       { runExperiment(b, "fig8") }
func BenchmarkFig9GeneralizedDistIndex(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFig10STLLMScaling(b *testing.B)        { runExperiment(b, "fig10") }

// --- ablation: snapshot assembly, view vs copy ------------------------------

func benchSignal(b *testing.B, entries, nodes, features int) *tensor.Tensor {
	b.Helper()
	return tensor.Randn(tensor.NewRNG(1), entries, nodes, features)
}

// BenchmarkSnapshotView measures index-batching's zero-copy snapshot
// reconstruction (the paper's Fig. 4 operation).
func BenchmarkSnapshotView(b *testing.B) {
	idx, err := batching.NewIndexDataset(benchSignal(b, 2000, 200, 2), 12, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := idx.Snapshot(i % idx.NumSnapshots())
		_ = x
		_ = y
	}
}

// BenchmarkSnapshotCopy measures the copy-based alternative (what standard
// batching pays per snapshot during SWA).
func BenchmarkSnapshotCopy(b *testing.B) {
	data := benchSignal(b, 2000, 200, 2)
	h := 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % (2000 - 2*h + 1)
		x := data.Slice(0, s, s+h).Clone()
		y := data.Slice(0, s+h, s+2*h).Clone()
		_ = x
		_ = y
	}
}

// BenchmarkAssembleBatch measures batched collation from views with buffer
// reuse (the steady-state training path).
func BenchmarkAssembleBatch(b *testing.B) {
	idx, err := batching.NewIndexDataset(benchSignal(b, 2000, 200, 2), 12, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	indices := make([]int, 32)
	for i := range indices {
		indices[i] = i * 7 % idx.NumSnapshots()
	}
	var buf batching.BatchBuffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := idx.AssembleBatch(indices, &buf)
		_ = x
		_ = y
	}
}

// --- ablation: preprocessing pipelines --------------------------------------

func BenchmarkStandardPreprocess(b *testing.B) {
	data := benchSignal(b, 800, 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batching.StandardPreprocess(data.Clone(), 12, 0.7, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexPreprocess(b *testing.B) {
	data := benchSignal(b, 800, 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batching.NewIndexDataset(data.Clone(), 12, 0.7, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: shuffling strategies -----------------------------------------

func benchIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func BenchmarkGlobalShuffler(b *testing.B) {
	s := batching.NewGlobalShuffler(benchIndices(50000), 64, 8, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EpochBatches(i)
	}
}

func BenchmarkLocalShuffler(b *testing.B) {
	s := batching.NewLocalShuffler(benchIndices(50000), 64, 8, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EpochBatches(i)
	}
}

func BenchmarkBatchShuffler(b *testing.B) {
	s := batching.NewBatchShuffler(benchIndices(50000), 64, 8, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EpochBatches(i)
	}
}

// --- ablation: AllReduce algorithms ------------------------------------------

func benchAllReduce(b *testing.B, workers, vecLen int, naive bool) {
	b.Helper()
	clu, err := cluster.New(cluster.Config{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := clu.Run(func(w *cluster.Worker) error {
			vec := make([]float64, vecLen)
			for j := range vec {
				vec[j] = float64(w.Rank() + j)
			}
			if naive {
				w.NaiveAllReduceMean(vec)
			} else {
				w.RingAllReduceMean(vec)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingAllReduce4x64k(b *testing.B)  { benchAllReduce(b, 4, 65536, false) }
func BenchmarkNaiveAllReduce4x64k(b *testing.B) { benchAllReduce(b, 4, 65536, true) }

// --- micro: numeric kernels ---------------------------------------------------

func BenchmarkMatMul128(b *testing.B) {
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, 128, 128)
	y := tensor.Randn(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// Cache-blocked vs naive MatMul at a size whose b matrix (1024x1024, 8 MiB)
// overflows L2: the tiled kernel reuses each [64,256] panel of b across the
// whole row block instead of streaming all of b per output row. The win is
// modest — the scalar Go kernel is FMA-bound, not bandwidth-bound — but the
// blocking keeps large products from thrashing once k*n outgrows the cache.
// Serial width isolates the cache effect from the pool.
func benchMatMul1024(b *testing.B, mul func(a, b *tensor.Tensor) *tensor.Tensor) {
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, 1024, 1024)
	y := tensor.Randn(rng, 1024, 1024)
	benchWithWorkers(b, 1, func() { mul(x, y) })
}

func BenchmarkMatMulNaiveSerial1024(b *testing.B) { benchMatMul1024(b, tensor.MatMulNaive) }
func BenchmarkMatMulTiledSerial1024(b *testing.B) { benchMatMul1024(b, tensor.MatMul) }

func BenchmarkSpMM(b *testing.B) {
	g, err := graph.RoadNetwork(1, 500, 8)
	if err != nil {
		b.Fatal(err)
	}
	fwd, _ := g.TransitionMatrices()
	x := tensor.Randn(tensor.NewRNG(3), 500, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwd.SpMM(x)
	}
}

func BenchmarkDCGRUStepForward(b *testing.B) {
	g, err := graph.RoadNetwork(1, 100, 8)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	cell := nn.NewDCGRUCell(tensor.NewRNG(4), "c", []*sparse.CSR{fwd, bwd}, 2, 2, 32)
	x := autograd.Constant(tensor.Randn(tensor.NewRNG(5), 8, 100, 2))
	h := cell.InitState(8, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.Step(x, h)
	}
}

func BenchmarkTrainingStep(b *testing.B) { benchTrainingStep(b, 50) }

// BenchmarkTrainingStepFitIndex is the step at the host benchmark's
// fit-index shapes (22 nodes; hidden 16, K 2, batch 8, 12 steps as above):
// the step `make step-profile` profiles.
func BenchmarkTrainingStepFitIndex(b *testing.B) { benchTrainingStep(b, 22) }

// benchTrainingStep is one PGT-DCRNN forward + backward + Adam step on a
// batch of 8 twelve-step windows over a road network of the given size.
func benchTrainingStep(b *testing.B, nodes int) {
	g, err := graph.RoadNetwork(1, nodes, 6)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	model := nn.NewPGTDCRNN(tensor.NewRNG(6), []*sparse.CSR{fwd, bwd}, 2, 2, 16, 12)
	opt := nn.NewAdam(model, 0.01)
	rng := tensor.NewRNG(7)
	x := tensor.Randn(rng, 8, 12, nodes, 2)
	y := tensor.Randn(rng, 8, 12, nodes, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := autograd.MAELoss(model.Forward(autograd.Constant(x)), y)
		if err := autograd.Backward(loss); err != nil {
			b.Fatal(err)
		}
		opt.Step()
	}
}

// --- micro: cost-model throughput ---------------------------------------------

func BenchmarkPerfModelFullSweep(b *testing.B) {
	c := perfmodel.NewDeterministic()
	dims := perfmodel.PGTDCRNNDims(dataset.PeMS.Nodes, dataset.PeMS.Nodes*9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 1; p <= 128; p *= 2 {
			c.DistIndexRun(dims, dataset.PeMS, 32, p, 30)
			c.BaselineDDPRun(dims, dataset.PeMS, 32, p, 30)
		}
	}
}

// --- micro: parallel runtime vs serial kernels --------------------------------

// benchWithWorkers runs body b.N times with the parallel pool pinned to the
// given width (0 = GOMAXPROCS), restoring the previous width afterwards.
func benchWithWorkers(b *testing.B, workers int, body func()) {
	b.Helper()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// Element-wise binary op on a large tensor (4M elements).
func benchAdd(b *testing.B, workers int) {
	rng := tensor.NewRNG(11)
	x := tensor.Randn(rng, 2048, 2048)
	y := tensor.Randn(rng, 2048, 2048)
	benchWithWorkers(b, workers, func() { tensor.Add(x, y) })
}

func BenchmarkElementwiseAddSerial(b *testing.B)   { benchAdd(b, 1) }
func BenchmarkElementwiseAddParallel(b *testing.B) { benchAdd(b, 0) }

// Transcendental Apply (sigmoid) on a large tensor: compute-bound per element.
func benchSigmoid(b *testing.B, workers int) {
	x := tensor.Randn(tensor.NewRNG(12), 2048, 1024)
	benchWithWorkers(b, workers, func() { x.Sigmoid() })
}

func BenchmarkSigmoidSerial(b *testing.B)   { benchSigmoid(b, 1) }
func BenchmarkSigmoidParallel(b *testing.B) { benchSigmoid(b, 0) }

// Large SpMM: PeMS-scale sensor graph against a wide feature matrix.
func benchSpMMLarge(b *testing.B, workers int) {
	g, err := graph.RoadNetwork(13, 4000, 10)
	if err != nil {
		b.Fatal(err)
	}
	fwd, _ := g.TransitionMatrices()
	x := tensor.Randn(tensor.NewRNG(14), 4000, 128)
	benchWithWorkers(b, workers, func() { fwd.SpMM(x) })
}

func BenchmarkSpMMLargeSerial(b *testing.B)   { benchSpMMLarge(b, 1) }
func BenchmarkSpMMLargeParallel(b *testing.B) { benchSpMMLarge(b, 0) }

// Batched matmul as used by attention: [64, 128, 64] x [64, 64, 128].
func benchBMM(b *testing.B, workers int) {
	rng := tensor.NewRNG(15)
	x := tensor.Randn(rng, 64, 128, 64)
	y := tensor.Randn(rng, 64, 64, 128)
	benchWithWorkers(b, workers, func() { tensor.BMM(x, y) })
}

func BenchmarkBMMSerial(b *testing.B)   { benchBMM(b, 1) }
func BenchmarkBMMParallel(b *testing.B) { benchBMM(b, 0) }

// Index-gather batch assembly (the per-step data path of index-batching).
func benchAssemble(b *testing.B, workers int) {
	idx, err := batching.NewIndexDataset(benchSignal(b, 4000, 400, 2), 12, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	indices := make([]int, 64)
	for i := range indices {
		indices[i] = i * 13 % idx.NumSnapshots()
	}
	var buf batching.BatchBuffer
	benchWithWorkers(b, workers, func() { idx.AssembleBatch(indices, &buf) })
}

func BenchmarkAssembleBatchSerial(b *testing.B)   { benchAssemble(b, 1) }
func BenchmarkAssembleBatchParallel(b *testing.B) { benchAssemble(b, 0) }

// --- ablation: DDP gradient sync schedules ------------------------------------

// benchDDPSync trains one epoch at 8 workers on a bandwidth-constrained
// fabric and reports the modeled epoch virtual time and exposed
// communication, comparing the collective-stack configurations: flatten
// baseline, bucketed overlapping ring, hierarchical (2 nodes x 4 GPUs),
// fp16-compressed buckets, and the bucket-size autotuner. The fabric is
// slow enough that the modeled metrics are communication-dominated and
// stable, which is what the CI regression gate (make bench-check) compares
// against bench/baseline.json.
func benchDDPSync(b *testing.B, mutate func(*shard.Config)) {
	g, err := graph.RoadNetwork(16, 24, 4)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	raw := tensor.Randn(tensor.NewRNG(17), 160, 24, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 16, 3)
	}
	paramBytes := nn.ParameterBytes(factory(1, nn.WrapSupports(supports)))
	cfg := shard.Config{
		Shards: 1, Replicas: 8, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 1,
		BucketBytes: paramBytes / 4,
		Net:         cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
	}
	mutate(&cfg)
	var res *shard.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = shard.Train(data, split, g, supports, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.VirtualTime.Microseconds()), "virt-µs/epoch")
	b.ReportMetric(float64(res.CommTime.Microseconds()), "exposed-comm-µs")
	b.ReportMetric(float64(res.GradSyncBytes)/1024, "wire-KiB/epoch")
	b.ReportMetric(float64(res.GradBucketBytes)/1024, "bucket-KiB")
}

func BenchmarkDDPBucketedOverlap8(b *testing.B) { benchDDPSync(b, func(*shard.Config) {}) }
func BenchmarkDDPFlatten8(b *testing.B) {
	benchDDPSync(b, func(c *shard.Config) { c.Algo = ddp.GradAlgoFlat })
}
func BenchmarkDDPHierarchical8(b *testing.B) {
	benchDDPSync(b, func(c *shard.Config) {
		c.Algo = ddp.GradAlgoHierarchical
		c.Topology = cluster.Topology{Nodes: 2, GPUsPerNode: 4}
	})
}
func BenchmarkDDPFP16Ring8(b *testing.B) {
	benchDDPSync(b, func(c *shard.Config) { c.FP16 = true })
}
func BenchmarkDDPFP16Hierarchical8(b *testing.B) {
	benchDDPSync(b, func(c *shard.Config) {
		c.Algo = ddp.GradAlgoHierarchical
		c.Topology = cluster.Topology{Nodes: 2, GPUsPerNode: 4}
		c.FP16 = true
	})
}
func BenchmarkDDPAutotune8(b *testing.B) {
	benchDDPSync(b, func(c *shard.Config) {
		c.BucketBytes = 0
		c.AutoTuneBuckets = true
	})
}

// --- gated: spatial sharding (hybrid spatial x data grids) --------------------

// benchShard trains one epoch on a Shards x Replicas grid over a
// bandwidth-constrained fabric with modeled compute, reporting the modeled
// epoch time, the exposed gradient communication, and the halo-exchange
// traffic/cost — all deterministic virtual-clock metrics, gated by `make
// bench-check` alongside the DDP family.
func benchShard(b *testing.B, shards, replicas int) {
	g, err := graph.RoadNetwork(16, 24, 4)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	raw := tensor.Randn(tensor.NewRNG(17), 160, 24, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 16, 3)
	}
	cfg := shard.Config{
		Shards: shards, Replicas: replicas, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 1,
		Net:         cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
	}
	var res *shard.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = shard.Train(data, split, g, supports, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.VirtualTime.Microseconds()), "virt-µs/epoch")
	b.ReportMetric(float64(res.CommTime.Microseconds()), "exposed-comm-µs")
	b.ReportMetric(float64(res.HaloTime.Microseconds()), "halo-µs/epoch")
	b.ReportMetric(float64(res.HaloBytes)/1024, "halo-KiB/epoch")
	b.ReportMetric(float64(res.EdgeCut), "edge-cut")
}

func BenchmarkShardSpatial4(b *testing.B)  { benchShard(b, 4, 1) }
func BenchmarkShardHybrid2x2(b *testing.B) { benchShard(b, 2, 2) }
func BenchmarkShardHybrid2x4(b *testing.B) { benchShard(b, 2, 4) }

// --- gated: communication-overlap ablations on the sharded hot path ----------

// benchShardOverlap isolates the two overlap mechanisms on the hybrid grid:
// interior-first halo exchange vs the blocking gather, and the bucketed
// two-stage gradient sync vs the flatten baseline — same fabric, modeled
// compute and bucket cap throughout, so the virt-µs deltas are purely the
// schedule. The halo-hidden / comm-hidden metrics expose how much of the
// identical communication volume each schedule moved under compute.
func benchShardOverlap(b *testing.B, shards, replicas int, halo shard.HaloSyncMode, algo ddp.GradAlgo) {
	g, err := graph.RoadNetwork(16, 24, 4)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	raw := tensor.Randn(tensor.NewRNG(17), 160, 24, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 16, 3)
	}
	paramBytes := nn.ParameterBytes(factory(1, nn.WrapSupports(supports)))
	cfg := shard.Config{
		Shards: shards, Replicas: replicas, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 1,
		HaloSync: halo, Algo: algo, BucketBytes: paramBytes / 4,
		Net:         cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
	}
	var res *shard.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = shard.Train(data, split, g, supports, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.VirtualTime.Microseconds()), "virt-µs/epoch")
	b.ReportMetric(float64(res.CommTime.Microseconds()), "exposed-comm-µs")
	b.ReportMetric(float64(res.HaloTime.Microseconds()), "halo-µs/epoch")
	b.ReportMetric(float64(res.HaloHiddenTime.Microseconds()), "halo-hidden-µs")
	b.ReportMetric(float64(res.CommHiddenTime.Microseconds()), "comm-hidden-µs")
}

func BenchmarkShardOverlapBlocking2x2(b *testing.B) {
	benchShardOverlap(b, 2, 2, shard.HaloSyncBlocking, ddp.GradAlgoFlat)
}
func BenchmarkShardOverlapHalo2x2(b *testing.B) {
	benchShardOverlap(b, 2, 2, shard.HaloSyncOverlap, ddp.GradAlgoFlat)
}
func BenchmarkShardOverlapBucketed2x2(b *testing.B) {
	benchShardOverlap(b, 2, 2, shard.HaloSyncBlocking, ddp.GradAlgoRing)
}
func BenchmarkShardOverlapFull2x2(b *testing.B) {
	benchShardOverlap(b, 2, 2, shard.HaloSyncOverlap, ddp.GradAlgoRing)
}
func BenchmarkShardOverlapBlocking2x4(b *testing.B) {
	benchShardOverlap(b, 2, 4, shard.HaloSyncBlocking, ddp.GradAlgoFlat)
}
func BenchmarkShardOverlapHalo2x4(b *testing.B) {
	benchShardOverlap(b, 2, 4, shard.HaloSyncOverlap, ddp.GradAlgoFlat)
}
func BenchmarkShardOverlapBucketed2x4(b *testing.B) {
	benchShardOverlap(b, 2, 4, shard.HaloSyncBlocking, ddp.GradAlgoRing)
}
func BenchmarkShardOverlapFull2x4(b *testing.B) {
	benchShardOverlap(b, 2, 4, shard.HaloSyncOverlap, ddp.GradAlgoRing)
}

// --- gated: staleness-aware prefetch pipeline on the hybrid grid --------------

// benchPipeline layers the training-pipeline mechanisms onto the hybrid
// grid of benchShard (same fabric, modeled compute, default overlapped
// schedules): a modeled per-batch collation cost paid serially or hidden by
// the double-buffered prefetcher, the two-channel comm timeline under a
// node topology that puts halo traffic on the intra-node channel while
// gradient buckets ride the inter-node one, and the bounded-staleness
// gradient mode whose quality cost the val-MAE metric tracks against K=0.
func benchPipeline(b *testing.B, shards, replicas int, prefetch, twoChannel bool, staleness int) {
	g, err := graph.RoadNetwork(16, 24, 4)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	raw := tensor.Randn(tensor.NewRNG(17), 160, 24, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 16, 3)
	}
	cfg := shard.Config{
		Shards: shards, Replicas: replicas, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 1,
		Net:         cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
		// Paper-scale proxy: on the full sensor graphs collation is a
		// visible slice of the step, which the tiny bench graph would hide.
		AssembleCost: func(int) time.Duration { return 500 * time.Microsecond },
		Prefetch:     prefetch,
		Staleness:    staleness,
	}
	if twoChannel {
		// One simulated node per replica group: halo exchange stays
		// intra-node, the two-stage gradient sync crosses nodes, and the
		// two channels pipeline independently.
		cfg.Topology = cluster.Topology{Nodes: replicas, GPUsPerNode: shards}
	}
	var res *shard.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = shard.Train(data, split, g, supports, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.VirtualTime.Microseconds()), "virt-µs/epoch")
	b.ReportMetric(float64(res.CommTime.Microseconds()), "exposed-comm-µs")
	b.ReportMetric(float64(res.HaloHiddenTime.Microseconds()), "halo-hidden-µs")
	b.ReportMetric(float64(res.CommHiddenTime.Microseconds()), "comm-hidden-µs")
	b.ReportMetric(res.Curve[len(res.Curve)-1].ValMAE*1000, "val-MAE-milli")
}

func BenchmarkPipelineSerial2x2(b *testing.B)     { benchPipeline(b, 2, 2, false, false, 0) }
func BenchmarkPipelinePrefetch2x2(b *testing.B)   { benchPipeline(b, 2, 2, true, false, 0) }
func BenchmarkPipelineTwoChannel2x2(b *testing.B) { benchPipeline(b, 2, 2, true, true, 0) }
func BenchmarkPipelineSerial2x4(b *testing.B)     { benchPipeline(b, 2, 4, false, false, 0) }
func BenchmarkPipelinePrefetch2x4(b *testing.B)   { benchPipeline(b, 2, 4, true, false, 0) }
func BenchmarkPipelineTwoChannel2x4(b *testing.B) { benchPipeline(b, 2, 4, true, true, 0) }

// Staleness-vs-quality curve on the fully pipelined 2x2 grid: K trades
// modeled epoch time against the val-MAE drift of delayed, compensated
// updates (K=0 is BenchmarkPipelineTwoChannel2x2).
func BenchmarkPipelineStaleK1_2x2(b *testing.B) { benchPipeline(b, 2, 2, true, true, 1) }
func BenchmarkPipelineStaleK4_2x2(b *testing.B) { benchPipeline(b, 2, 2, true, true, 4) }

// --- gated: index-batching DDP strategies -------------------------------------

// benchIndexBatch runs one modeled epoch of a distributed index-batching
// strategy at 4 workers (mirroring benchDDPSync's fabric), so the
// strategy-level virtual-time metrics join the regression gate.
func benchIndexBatch(b *testing.B, store bool) {
	g, err := graph.RoadNetwork(16, 24, 4)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	raw := tensor.Randn(tensor.NewRNG(17), 160, 24, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 16, 3)
	}
	cfg := shard.Config{
		Shards: 1, Replicas: 4, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 1,
		Net:         cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
	}
	if store {
		st, err := batching.NewPartitionStore(data, cfg.Replicas)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Feed.Store = st
		cfg.Sampler = ddp.BatchShuffle
	}
	var res *shard.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = shard.Train(data, split, g, supports, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.VirtualTime.Microseconds()), "virt-µs/epoch")
	b.ReportMetric(float64(res.CommTime.Microseconds()), "exposed-comm-µs")
	b.ReportMetric(float64(res.GradSyncBytes)/1024, "wire-KiB/epoch")
}

func BenchmarkIndexBatchDistIndex4(b *testing.B)    { benchIndexBatch(b, false) }
func BenchmarkIndexBatchGenDistIndex4(b *testing.B) { benchIndexBatch(b, true) }

// --- gated: event-stream hook overhead ----------------------------------------

// benchEventStream runs one modeled epoch at 4 workers with or without the
// per-epoch/autotune event hooks attached, reporting the same deterministic
// virtual-clock metrics as the DDP family. Gating both variants pins the
// hook path to the hookless loop: events must not perturb the modeled
// timeline, so a regression in either one (or a gap between them) fails
// `make bench-check`.
func benchEventStream(b *testing.B, hook bool) {
	g, err := graph.RoadNetwork(16, 24, 4)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	raw := tensor.Randn(tensor.NewRNG(17), 160, 24, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		b.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 16, 3)
	}
	cfg := shard.Config{
		Shards: 1, Replicas: 4, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 1,
		Net:         cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
	}
	events := 0
	if hook {
		cfg.OnEpoch = func(metrics.EpochRecord) { events++ }
		cfg.OnAutotuneLock = func(int64) { events++ }
	}
	var res *shard.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = 0
		res, err = shard.Train(data, split, g, supports, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if hook && events == 0 {
		b.Fatal("epoch hook never fired")
	}
	b.ReportMetric(float64(res.VirtualTime.Microseconds()), "virt-µs/epoch")
	b.ReportMetric(float64(res.CommTime.Microseconds()), "exposed-comm-µs")
	b.ReportMetric(float64(res.GradSyncBytes)/1024, "wire-KiB/epoch")
}

func BenchmarkEventStreamHooked4(b *testing.B)   { benchEventStream(b, true) }
func BenchmarkEventStreamHookless4(b *testing.B) { benchEventStream(b, false) }

// --- micro: row-wise nn kernels (softmax / layer norm) on the pool ------------

func benchSoftmax(b *testing.B, workers int) {
	x := tensor.Randn(tensor.NewRNG(18), 512, 64, 64)
	v := autograd.Constant(x)
	benchWithWorkers(b, workers, func() { autograd.Softmax(v) })
}

func BenchmarkSoftmaxSerial(b *testing.B)   { benchSoftmax(b, 1) }
func BenchmarkSoftmaxParallel(b *testing.B) { benchSoftmax(b, 0) }

func benchLayerNorm(b *testing.B, workers int) {
	d := 128
	x := autograd.NewVariable(tensor.Randn(tensor.NewRNG(19), 256, 128, d))
	gamma := autograd.NewVariable(tensor.Ones(d))
	beta := autograd.NewVariable(tensor.New(d))
	benchWithWorkers(b, workers, func() {
		out := autograd.LayerNorm(x, gamma, beta, 1e-5)
		if err := autograd.Backward(autograd.SumAll(out)); err != nil {
			b.Fatal(err)
		}
		x.ZeroGrad()
		gamma.ZeroGrad()
		beta.ZeroGrad()
	})
}

func BenchmarkLayerNormSerial(b *testing.B)   { benchLayerNorm(b, 1) }
func BenchmarkLayerNormParallel(b *testing.B) { benchLayerNorm(b, 0) }

// --- gated: serving tier (coalescing queue, replica pool, swap) ---------------

// The serve family drives deterministic serving sessions under an explicit
// cost model (2ms launch + 250µs/window — the launch is the term coalescing
// amortizes) and a modeled open-loop arrival process pinned at each
// configuration's modeled capacity, then reports the server's virtual-clock
// accounting. Barriered caller waves keep every batch full, and the arrival
// stamps come from admission order, so the modeled p50/p99/QPS are exact,
// reproducible numbers on any host: Serial prices one-request dispatch
// (capacity 444 QPS), Coalesce8 must clear >=2x that (it models ~4.3x),
// Replicas2x8 doubles Coalesce8 over a two-replica pool, and SwapUnderLoad
// pins that atomic weight swaps leave the modeled timeline untouched.

var (
	benchServeOnce sync.Once
	benchServeExp  *Experiment
	benchServeWin  Window
	benchServeErr  error
)

// benchServeSetup fits the tiny serving experiment once per process.
func benchServeSetup(b *testing.B) (*Experiment, Window) {
	b.Helper()
	benchServeOnce.Do(func() {
		exp, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyIndex, 1)...)
		if err != nil {
			benchServeErr = err
			return
		}
		if _, err := exp.Fit(context.Background()); err != nil {
			benchServeErr = err
			return
		}
		pred, err := exp.Predictor()
		if err != nil {
			benchServeErr = err
			return
		}
		vals := make([]float64, pred.Horizon()*pred.Nodes()*pred.Features())
		for i := range vals {
			vals[i] = 55 + float64(i%9)
		}
		benchServeExp, benchServeWin = exp, Window{Values: vals}
	})
	if benchServeErr != nil {
		b.Fatal(benchServeErr)
	}
	return benchServeExp, benchServeWin
}

// benchServeCost is the explicit modeled forward cost: a fixed launch
// (weights streamed once per batch) plus a per-window term.
func benchServeCost(batch int) time.Duration {
	return 2*time.Millisecond + time.Duration(batch)*250*time.Microsecond
}

// runServeSession drives callers goroutines through rounds closed-loop
// requests each (plus swaps mid-load) and returns the final modeled stats.
func runServeSession(b *testing.B, replicas, maxBatch, callers, rounds, swaps int, interarrival time.Duration) ServeStats {
	b.Helper()
	exp, w := benchServeSetup(b)
	srv, err := NewServer(exp,
		WithReplicas(replicas),
		WithMaxBatch(maxBatch),
		WithBatchWindow(time.Second),
		WithQueueDepth(2*callers),
		WithCostModel(benchServeCost),
		WithArrivalProcess(interarrival),
	)
	if err != nil {
		b.Fatal(err)
	}
	// Swaps run concurrently with the request waves; they leave the
	// modeled timeline untouched, so the stats stay deterministic.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; i < swaps; i++ {
			if err := srv.Swap(exp); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	// Barriered waves over persistent workers: every round issues exactly
	// callers requests, so each wave splits into full MaxBatch batches and
	// the count trigger (never the window timer) dispatches every one.
	// Workers are spawned once — waking a parked goroutine is orders of
	// magnitude faster than the real forward, so a whole wave enqueues
	// before its first batch completes and the modeled arrivals coincide.
	begin := make(chan struct{})
	results := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for range begin {
				_, err := srv.Predict(context.Background(), w)
				results <- err
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for g := 0; g < callers; g++ {
			begin <- struct{}{}
		}
		for g := 0; g < callers; g++ {
			if err := <-results; err != nil {
				b.Error(err)
			}
		}
	}
	close(begin)
	<-swapDone
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	return srv.Stats()
}

func benchServe(b *testing.B, replicas, maxBatch, callers, swaps int, interarrival time.Duration) {
	const rounds = 16
	benchServeSetup(b) // fit outside the timer
	var st ServeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = runServeSession(b, replicas, maxBatch, callers, rounds, swaps, interarrival)
	}
	if want := int64(callers * rounds); st.Completed != want {
		b.Fatalf("completed %d, want %d", st.Completed, want)
	}
	b.ReportMetric(st.QPS, "qps")
	b.ReportMetric(float64(st.P50.Microseconds()), "p50-µs")
	b.ReportMetric(float64(st.P99.Microseconds()), "p99-µs")
	b.ReportMetric(float64(st.Virtual.Microseconds()), "virt-µs")
}

// Interarrival pins the offered load at each configuration's modeled
// capacity: Serial serves cost(1)=2.25ms per request, a coalescing replica
// serves 8 per cost(8)=4ms (500µs), and two replicas serve twice that.
func BenchmarkServeSerial(b *testing.B)        { benchServe(b, 1, 1, 1, 0, 2250*time.Microsecond) }
func BenchmarkServeCoalesce8(b *testing.B)     { benchServe(b, 1, 8, 8, 0, 500*time.Microsecond) }
func BenchmarkServeReplicas2x8(b *testing.B)   { benchServe(b, 2, 8, 16, 0, 250*time.Microsecond) }
func BenchmarkServeSwapUnderLoad(b *testing.B) { benchServe(b, 1, 8, 8, 6, 500*time.Microsecond) }

// --- gated: streaming ingestion + rolling retrain ----------------------------

// benchStreamMeta is a synthetic fabric-scale dataset for the streaming
// benches — 24 nodes, 160 entries, horizon 3, matching the sharded-fabric
// benches above — streamed through the bounded ingestion ring instead of
// materialized up front.
var benchStreamMeta = dataset.Meta{
	Name: "StreamBench", Domain: dataset.Traffic,
	Nodes: 24, Entries: 160, RawFeatures: 1,
	Horizon: 3, PeriodSteps: 48, NeighborsK: 4,
}

// benchStreamBase is the 2 shards x 2 replicas hybrid-grid configuration the
// streaming benches retrain under: modeled compute and collation costs so
// every reported clock is virtual.
func benchStreamBase(epochs int) core.Config {
	return core.Config{
		Model: core.ModelPGTDCRNN, Strategy: core.DistIndex,
		Workers: 2, Spatial: shard.Spatial{Shards: 2},
		BatchSize: 2, Epochs: epochs, LR: 0.01, Hidden: 16, K: 1, Seed: 1,
		Prefetch:     true,
		ComputeCost:  func(int) time.Duration { return 2 * time.Millisecond },
		AssembleCost: func(int) time.Duration { return 500 * time.Microsecond },
	}
}

// benchStreamRun opens a fresh stream over benchStreamMeta and drives the
// configured retrain rounds through it, returning the last round's report.
func benchStreamRun(b *testing.B, base core.Config, window, advance, rounds int) *core.Report {
	b.Helper()
	src, err := stream.NewSource(benchStreamMeta, base.Seed, stream.Options{Window: benchStreamMeta.Entries})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	rt, err := stream.NewRetrainer(src, stream.RetrainConfig{
		Base: base, Window: window, Advance: advance, Rounds: rounds,
	})
	if err != nil {
		b.Fatal(err)
	}
	done, err := rt.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return done[len(done)-1].Report
}

// loadSpread is the max/min ratio of the per-shard structural compute
// shares — 1.0 is perfectly balanced.
func loadSpread(loads []float64) float64 {
	lo, hi := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return hi / lo
}

// BenchmarkStreamReplay2x2 replays the full stream in one window through the
// rolling retrainer on the hybrid grid — the streaming contract's unit of
// cost: ingest the ring, materialize, fit under modeled costs. The virtual
// clock is the gated metric; it must track the equivalent offline fit.
func BenchmarkStreamReplay2x2(b *testing.B) {
	var rep *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = benchStreamRun(b, benchStreamBase(1), benchStreamMeta.Entries, 0, 1)
	}
	b.ReportMetric(float64(rep.VirtualTime.Microseconds()), "virt-µs/round")
	b.ReportMetric(float64(rep.CommTime.Microseconds()), "exposed-comm-µs")
	b.ReportMetric(float64(rep.HaloTime.Microseconds()), "halo-µs/round")
}

// BenchmarkStreamRepartition2x2 injects a 9:1 compute skew into one shard of
// a count-balanced partition (StaticPartition pins the imbalanced start) and
// lets mid-run elastic chunk migration correct it while the window streams
// in. Gated metrics: the modeled round time, the residual per-shard load
// spread against the static run's spread (the reduction the subsystem buys),
// and the migration count.
func BenchmarkStreamRepartition2x2(b *testing.B) {
	// Weight shard 0 of the count-based plan 9x, reproducing the partition
	// the engine will build from the same generated graph.
	ds, err := dataset.Generate(benchStreamMeta, 1)
	if err != nil {
		b.Fatal(err)
	}
	fwd, bwd := ds.Graph.TransitionMatrices()
	plan, err := shard.BuildPlan(ds.Graph, []*sparse.CSR{fwd, bwd}, 2)
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, ds.Graph.N)
	for i := range weights {
		weights[i] = 1
	}
	for _, u := range plan.Parts[0].Own {
		weights[u] = 9
	}
	skewed := benchStreamBase(3)
	skewed.NodeWeights = weights
	skewed.StaticPartition = true

	static := benchStreamRun(b, skewed, benchStreamMeta.Entries, 0, 1)

	elastic := skewed
	elastic.Repartition = shard.Repartition{ChunkSize: 4, Threshold: 2}
	var rep *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = benchStreamRun(b, elastic, benchStreamMeta.Entries, 0, 1)
	}
	if rep.Repartitions == 0 {
		b.Fatal("injected skew never triggered a repartition")
	}
	b.ReportMetric(float64(rep.VirtualTime.Microseconds()), "virt-µs/round")
	b.ReportMetric(loadSpread(rep.ShardLoads), "load-spread")
	b.ReportMetric(loadSpread(static.ShardLoads), "static-spread")
	b.ReportMetric(float64(rep.Repartitions), "repartitions")
}

// --- gated: fault injection + elastic recovery -------------------------------

// benchFaultCfg is the fully-modeled 2 replicas x 2 shards hybrid grid the
// fault benches run under: with both cost models pinned, the recovery
// overhead is an exact virtual-clock quantity, not a host measurement.
func benchFaultCfg() core.Config {
	meta, _ := dataset.ByName("Chickenpox-Hungary")
	return core.Config{
		Meta: meta, Scale: 0.4,
		Model: core.ModelPGTDCRNN, Strategy: core.DistIndex,
		Workers: 2, Spatial: shard.Spatial{Shards: 2},
		BatchSize: 4, Epochs: 2, Hidden: 8, K: 1, Seed: 3,
		AssembleCost: func(items int) time.Duration {
			return time.Duration(items) * 25 * time.Microsecond
		},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
	}
}

// BenchmarkFaultRecovery2x2 crashes one rank of the hybrid grid mid-epoch and
// prices the full recovery path — detection, snapshot rollback, grid
// re-plan, state re-fill, and the slower surviving grid. Gated metrics: the
// run's modeled clock, the booked recovery charge, and the total modeled
// overhead against the fault-free run.
func BenchmarkFaultRecovery2x2(b *testing.B) {
	clean, err := core.Run(benchFaultCfg())
	if err != nil {
		b.Fatal(err)
	}
	var rep *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchFaultCfg()
		cfg.Faults = fault.New(11, fault.Crash(3, 8*time.Millisecond))
		rep, err = core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if rep.Recoveries != 1 {
		b.Fatalf("recoveries = %d, want 1", rep.Recoveries)
	}
	b.ReportMetric(float64(rep.VirtualTime.Microseconds()), "virt-µs")
	b.ReportMetric(float64(rep.RecoveryTime.Microseconds()), "recovery-µs")
	b.ReportMetric(float64((rep.VirtualTime - clean.VirtualTime).Microseconds()), "overhead-µs")
}

// BenchmarkFaultServeFailover drives a closed-loop request sequence through a
// two-replica pool whose first replica dies mid-burst: the batch retries on
// the healthy replica under the modeled backoff and the pool degrades to one.
// Gated metrics: the degraded session's modeled p50/p99 and the failover
// overhead against an identical fault-free session.
func BenchmarkFaultServeFailover(b *testing.B) {
	exp, w := benchServeSetup(b)
	const requests = 16
	session := func(faulty bool) ServeStats {
		opts := []ServeOption{
			WithReplicas(2), WithMaxBatch(1),
			WithBatchWindow(time.Second), WithQueueDepth(8),
			WithCostModel(benchServeCost),
		}
		if faulty {
			opts = append(opts,
				WithReplicaFailure(0, 2),
				WithServeRetryBackoff(4*time.Millisecond))
		}
		srv, err := NewServer(exp, opts...)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < requests; r++ {
			if _, err := srv.Predict(context.Background(), w); err != nil {
				b.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		return srv.Stats()
	}
	cleanSt := session(false)
	var st ServeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = session(true)
	}
	if st.Completed != requests || st.Retries != 1 || st.EvictedReplicas != 1 || st.Replicas != 1 {
		b.Fatalf("stats completed=%d retries=%d evicted=%d replicas=%d, want %d/1/1/1",
			st.Completed, st.Retries, st.EvictedReplicas, st.Replicas, requests)
	}
	b.ReportMetric(float64(st.P50.Microseconds()), "p50-µs")
	b.ReportMetric(float64(st.P99.Microseconds()), "p99-µs")
	b.ReportMetric(float64((st.P99 - cleanSt.P99).Microseconds()), "failover-overhead-µs")
}
