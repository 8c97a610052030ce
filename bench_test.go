// Host benchmarks (run with `go test -bench=. -benchmem`): one per paper
// table and figure, plus micro-benchmarks of the design choices README's
// "Build, test, benchmark" lists — view- vs copy-based snapshot assembly,
// ring AllReduce, index vs standard preprocessing, the three shuffling
// strategies, the training step, and the parallel sparse/dense kernels.
// They measure wall clock and allocations; the modeled virtual-clock numbers
// are pinned exactly by TestModeledGoldens (modeled_golden_test.go).
package pgti

import (
	"io"
	"runtime"
	"testing"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/experiments"
	"pgti/internal/graph"
	"pgti/internal/nn"
	"pgti/internal/parallel"
	"pgti/internal/perfmodel"
	"pgti/internal/sparse"
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

// --- collectives: ring AllReduce ----------------------------------------------

func BenchmarkRingAllReduce4x64k(b *testing.B) {
	clu, err := cluster.New(cluster.Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := clu.Run(func(w *cluster.Worker) error {
			vec := make([]float64, 65536)
			for j := range vec {
				vec[j] = float64(w.Rank() + j)
			}
			w.RingAllReduceMean(vec)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

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
