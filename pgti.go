// Package pgti is a pure-Go reproduction of "PGT-I: Scaling Spatiotemporal
// GNNs with Memory-Efficient Distributed Training" (SC 2025). It provides:
//
//   - Index-batching and distributed-index-batching — the paper's
//     memory-efficient spatiotemporal data pipelines, built on zero-copy
//     tensor views (internal/batching);
//   - the ST-GNN model zoo of the paper's evaluation — DCRNN, PGT-DCRNN,
//     A3T-GCN and an ST-LLM-lite — on a from-scratch tensor/autograd stack;
//   - a distributed data-parallel trainer with real ring AllReduce over a
//     simulated Dask-like cluster, hybrid (spatial x data) parallelism, and
//     a calibrated Polaris performance model that regenerates the paper's
//     128-GPU results.
//
// # The experiment lifecycle
//
// The primary API is the staged Experiment: configure with functional
// options, train with a cancellable Fit that streams typed Events, then
// hold onto the trained model through a warm Predictor:
//
//	exp, err := pgti.NewExperiment("Chickenpox-Hungary",
//		pgti.WithStrategy(pgti.StrategyIndex),
//		pgti.WithEpochs(20),
//		pgti.WithEvents(func(ev pgti.Event) {
//			if e, ok := ev.(pgti.EpochEvent); ok {
//				fmt.Printf("epoch %d: val MAE %.4f\n", e.Epoch, e.ValMAE)
//			}
//		}))
//	report, err := exp.Fit(ctx)    // honors ctx mid-epoch
//	pred, err := exp.Predictor()   // goroutine-safe inference handle
//	forecast, err := pred.Predict(window)
//
// The stages — Open (dataset + pipeline), Build (model + grid), Fit, Eval,
// Predictor — auto-advance but can be driven individually. Illegal option
// combinations fail fast with typed errors (*InvalidConfigError,
// ErrUnknownDataset), and Fit wraps *OOMError and context errors for
// errors.Is / errors.As.
//
// # Serving
//
// A fitted Experiment goes live behind a Server — a goroutine-safe
// coalescing batch queue feeding a pool of replicas over one served model:
//
//	srv, err := pgti.NewServer(exp, pgti.WithReplicas(2), pgti.WithMaxBatch(8))
//	defer srv.Close()
//	f, err := srv.Predict(ctx, window)   // from any number of goroutines
//	...
//	exp2.Fit(ctx)                        // retrain while serving
//	srv.Swap(exp2)                       // atomic model swap, no drain
//
// Concurrent Predict calls coalesce into batched forwards bitwise identical
// to serial Predictor calls; Swap installs a retrained model — weights and
// its training split's normalization statistics — atomically without
// draining; a full queue sheds load with a typed *OverloadedError; Close
// drains and later calls get ErrServerClosed. Stats reports modeled
// p50/p99/QPS under a deterministic virtual clock. The served model is a
// private clone, so serving never races a concurrent retrain.
//
// # Migrating from Run(Config)
//
// The one-shot Run(Config) entry point and its Config literal are gone; the
// options write the engine's own configuration and are the only surface.
// Run(cfg) becomes NewExperiment(name, opts...).Fit(ctx) followed by Eval,
// each Config field its With* option; EstimatePolaris(Config{...}) becomes
// EstimatePolaris(name, opts...).
//
// The six strategies, four models, and six datasets mirror the paper; see
// README's "Quick start: the Experiment API" for the drivers that regenerate
// each table and figure (`pgti bench`, cmd/pgti) and "Build, test,
// benchmark" for how the reproduced modeled numbers are pinned.
package pgti

import (
	"pgti/internal/cluster"
	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/memsim"
)

// Strategy selects the training pipeline.
type Strategy = core.Strategy

// The six strategies of the paper.
const (
	// StrategyBaseline is Algorithm-1 standard batching on one GPU.
	StrategyBaseline = core.Baseline
	// StrategyIndex is single-GPU index-batching (§4.1).
	StrategyIndex = core.Index
	// StrategyGPUIndex keeps the dataset GPU-resident (§4.1).
	StrategyGPUIndex = core.GPUIndex
	// StrategyBaselineDDP is standard DDP with on-demand data fetches.
	StrategyBaselineDDP = core.BaselineDDP
	// StrategyDistIndex is distributed-index-batching (§4.2).
	StrategyDistIndex = core.DistIndex
	// StrategyGenDistIndex is the partitioned, batch-shuffled variant
	// for larger-than-memory datasets (§5.4).
	StrategyGenDistIndex = core.GenDistIndex
)

// Model selects the forecasting architecture.
type Model = core.ModelKind

// The paper's model families.
const (
	ModelPGTDCRNN = core.ModelPGTDCRNN
	ModelDCRNN    = core.ModelDCRNN
	ModelA3TGCN   = core.ModelA3TGCN
	ModelSTLLM    = core.ModelSTLLM
)

// Shuffle selects the distributed epoch-shuffling strategy.
type Shuffle = ddp.SamplerKind

// The paper's shuffling strategies.
const (
	ShuffleGlobal = ddp.GlobalShuffle
	ShuffleLocal  = ddp.LocalShuffle
	ShuffleBatch  = ddp.BatchShuffle
)

// GradAlgo selects the gradient AllReduce algorithm of the collective stack.
type GradAlgo = ddp.GradAlgo

// The gradient-exchange algorithms.
const (
	// GradAlgoRing (default) is the bucketed overlapping flat ring.
	GradAlgoRing = ddp.GradAlgoRing
	// GradAlgoFlat is the monolithic flatten-then-AllReduce baseline.
	GradAlgoFlat = ddp.GradAlgoFlat
	// GradAlgoHierarchical reduces within each simulated node over an
	// NVLink-class link, rings across node leaders over the fabric, and
	// broadcasts back down.
	GradAlgoHierarchical = ddp.GradAlgoHierarchical
)

// Topology describes the simulated node layout for the hierarchical
// AllReduce.
type Topology = cluster.Topology

// Forecast is one test-window prediction in original units (re-exported
// from the core engine).
type Forecast = core.Forecast

// Report is the outcome of a run: the per-epoch curve in original signal
// units, wall and modeled (virtual) time with the exposed/hidden
// communication split, gradient-bucketing and halo accounting, recovery and
// repartition counts, byte-exact memory peaks, and the optional trace
// summary. It is the engine's report, re-exported; see core.Report for the
// per-field documentation.
type Report = core.Report

// Datasets lists the available dataset names in ascending size order.
func Datasets() []string {
	all := dataset.All()
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.Name
	}
	return names
}

// gib is the byte count of one GiB (WithMemoryCaps' unit).
const gib = memsim.GiB

// FormatBytes renders a byte count with binary prefixes (convenience
// re-export for report consumers).
func FormatBytes(b int64) string { return memsim.FormatBytes(b) }
