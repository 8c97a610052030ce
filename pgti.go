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
// coalescing batch queue feeding a pool of warm model replicas:
//
//	srv, err := pgti.NewServer(exp, pgti.WithReplicas(2), pgti.WithMaxBatch(8))
//	defer srv.Close()
//	f, err := srv.Predict(ctx, window)   // from any number of goroutines
//	...
//	exp2.Fit(ctx)                        // retrain while serving
//	srv.Swap(exp2)                       // atomic weight swap, no drain
//
// Concurrent Predict calls coalesce into batched forwards bitwise identical
// to serial Predictor calls; Swap installs retrained weights atomically
// without draining; a full queue sheds load with a typed *OverloadedError;
// Close drains and later calls get ErrServerClosed. Stats reports modeled
// p50/p99/QPS under a deterministic virtual clock. Each replica holds a
// private parameter clone, so serving never races a concurrent retrain.
//
// # The compatibility shim
//
// Run(Config) is the original one-shot entry point, kept as a thin shim
// that maps Config onto the exact staged path above — it composes the same
// engine stages and is pinned bitwise-identical to NewExperiment(...).Fit
// by the compatibility test suite. New code should prefer NewExperiment;
// Run remains stable for existing callers.
//
// Migrating a Config literal to NewExperiment options is mechanical —
// every field has an option:
//
//	Config field                  Option
//	Dataset                       NewExperiment's first argument
//	Scale                         WithScale
//	Model / Strategy              WithModel / WithStrategy
//	Workers                       WithWorkers
//	BatchSize / Epochs            WithBatchSize / WithEpochs
//	LR / ScaleLR                  WithLR / WithLRScaling
//	Hidden / K                    WithHidden / WithDiffusionSteps
//	Seed                          WithSeed
//	Shuffle                       WithShuffle (semantic fix, see below)
//	GradAlgo/Topology/GradFP16/
//	GradAutoTune                  WithGradStack
//	Spatial                       WithSpatial
//	SystemMemoryGB / GPUMemoryGB  WithMemoryCaps
//	MissingFrac                   WithMissingData
//	LoadCheckpoint                WithWarmStart (WithResume to continue)
//	SaveCheckpoint                WithSaveCheckpoint
//	EmitForecasts                 WithForecasts
//	Trace                         WithTrace
//
// The streaming-era capabilities exist only on the options surface — the
// Config shim predates them and gains no new fields:
//
//	(no Config field)             WithRepartition (elastic chunk migration)
//	(no Config field)             WithMeasuredRepartition (measured skew detection)
//	(no Config field)             WithNodeWeights (weighted partition + skew)
//	(no Config field)             WithComputeCost / WithAssembleCost
//	(no Config field)             WithPrefetch / WithStaleness
//	(no Config field)             NewStream / Stream.Retrain (online retraining)
//	(no Config field)             WithFaultPlan (deterministic fault injection)
//
// The one semantic difference is Shuffle: ShuffleGlobal is the field's zero
// value, so a Config literal cannot distinguish "explicitly global" from
// "unset", and StrategyGenDistIndex silently upgrades the unset reading to
// its batch-shuffling default. WithShuffle(ShuffleGlobal) has no such
// ambiguity — an explicit option always wins.
//
// The six strategies, four models, and six datasets mirror the paper; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for paper-vs-
// reproduced numbers.
package pgti

import (
	"fmt"

	"pgti/internal/cluster"
	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/memsim"
	"pgti/internal/shard"
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

// Spatial is the spatial-parallelism knob: Spatial{Shards: P} partitions the
// sensor graph into P node blocks, multiplying the worker grid into a 2D
// (spatial x data) layout — each of Workers data replicas spreads over P
// shard workers, halo rows travel within replica groups, and gradient
// AllReduce runs within shard groups. Every worker then holds only its
// ~N/P share of the node features. Requires StrategyDistIndex and a
// graph-convolutional model (PGT-DCRNN, DCRNN, or A3T-GCN).
type Spatial = shard.Spatial

// Config configures a training run.
type Config struct {
	// Dataset names one of the paper's datasets: "Chickenpox-Hungary",
	// "Windmill-Large", "METR-LA", "PeMS-BAY", "PeMS-All-LA", "PeMS".
	Dataset string
	// Scale optionally shrinks the dataset (0 < Scale <= 1) so runs fit the
	// local machine; paper-scale estimates come from the bench harness.
	Scale float64

	Model    Model
	Strategy Strategy

	Workers   int // for distributed strategies
	BatchSize int
	Epochs    int
	LR        float64
	// ScaleLR applies the linear learning-rate scaling rule for large
	// global batches.
	ScaleLR bool
	Hidden  int
	K       int // diffusion hops
	Seed    uint64
	// Shuffle selects the distributed epoch-shuffling strategy. Shim
	// caveat, kept for compatibility: ShuffleGlobal is the zero value, so
	// an explicit ShuffleGlobal is indistinguishable from "unset" and
	// StrategyGenDistIndex overrides it with its batch-shuffling default.
	// The options API has the unambiguous story: WithShuffle(ShuffleGlobal)
	// on a NewExperiment always forces global shuffling.
	Shuffle Shuffle

	// GradAlgo selects the DDP gradient AllReduce algorithm (ring | flat |
	// hierarchical); Topology lays out the simulated nodes for the
	// hierarchical algorithm (e.g. Topology{Nodes: 2, GPUsPerNode: 4}).
	GradAlgo GradAlgo
	Topology Topology
	// GradFP16 ships gradient buckets quantized to half precision with
	// error-feedback residual accumulation.
	GradFP16 bool
	// GradAutoTune sweeps gradient bucket sizes across the first epoch and
	// locks in the size minimizing the modeled step time.
	GradAutoTune bool

	// Spatial enables spatial graph sharding (see the Spatial type); the
	// zero value keeps the graph whole.
	Spatial Spatial

	// SystemMemoryGB / GPUMemoryGB cap the byte-exact memory trackers
	// (0 = unlimited). A run exceeding the system cap reports OOM, like
	// the paper's PeMS runs on a 512 GB node.
	SystemMemoryGB float64
	GPUMemoryGB    float64

	// MissingFrac simulates sensor dropouts: observations are zeroed with
	// this probability and training uses the masked-MAE loss.
	MissingFrac float64

	// LoadCheckpoint warm-starts the model parameters from a checkpoint
	// (every replica for distributed strategies); SaveCheckpoint persists
	// the trained parameters plus the resumable optimizer trailer (rank 0's
	// replica — replicas are bitwise identical). Resume additionally
	// restores the optimizer moments and epoch cursor from LoadCheckpoint
	// so training continues exactly where the saved run stopped (Epochs
	// then counts from epoch 0 — the total budget).
	LoadCheckpoint string
	SaveCheckpoint string
	Resume         bool

	// EmitForecasts attaches predictions for the first N test snapshots to
	// the report (rank 0's replica for distributed strategies).
	EmitForecasts int

	// Trace, when non-nil, records virtual-clock spans and per-worker
	// counters into the recorder during the run (see NewTraceRecorder and
	// WithTrace). A traced run is bitwise identical to an untraced one.
	Trace *TraceRecorder
}

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

// gib is the byte count of one GiB (shared by Config and WithMemoryCaps).
const gib = memsim.GiB

// coreConfig maps the legacy Config onto the engine configuration. Note
// the documented Shuffle caveat: SamplerSet can only be inferred from a
// non-zero value, so an explicit ShuffleGlobal reads as unset.
func coreConfig(cfg Config, meta dataset.Meta) core.Config {
	return core.Config{
		Meta:           meta,
		Scale:          cfg.Scale,
		Model:          cfg.Model,
		Strategy:       cfg.Strategy,
		Workers:        cfg.Workers,
		BatchSize:      cfg.BatchSize,
		Epochs:         cfg.Epochs,
		LR:             cfg.LR,
		UseLRScaling:   cfg.ScaleLR,
		Hidden:         cfg.Hidden,
		K:              cfg.K,
		Seed:           cfg.Seed,
		Sampler:        cfg.Shuffle,
		SamplerSet:     cfg.Shuffle != ddp.GlobalShuffle,
		SystemMemory:   int64(cfg.SystemMemoryGB * float64(gib)),
		GPUMemory:      int64(cfg.GPUMemoryGB * float64(gib)),
		MissingFrac:    cfg.MissingFrac,
		LoadCheckpoint: cfg.LoadCheckpoint,
		SaveCheckpoint: cfg.SaveCheckpoint,
		Resume:         cfg.Resume,
		EmitForecasts:  cfg.EmitForecasts,
		GradAlgo:       cfg.GradAlgo,
		Topology:       cfg.Topology,
		GradFP16:       cfg.GradFP16,
		GradAutoTune:   cfg.GradAutoTune,
		Spatial:        cfg.Spatial,
		Trace:          cfg.Trace,
	}
}

// Run executes a training run per cfg. It is the compatibility shim over
// the staged Experiment lifecycle: the Config maps onto the identical
// engine path NewExperiment drives, so Run's training curves are pinned
// bitwise-identical to NewExperiment(...).Fit's (asserted by the compat
// test suite). Out-of-memory is a reported outcome (Report.OOM), not an
// error. New code should prefer NewExperiment, which adds cancellation,
// event streaming, typed validation, and the Predictor.
func Run(cfg Config) (*Report, error) {
	meta, err := dataset.ByName(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("pgti: %w (available: %v)", err, Datasets())
	}
	return core.Run(coreConfig(cfg, meta))
}

// FormatBytes renders a byte count with binary prefixes (convenience
// re-export for report consumers).
func FormatBytes(b int64) string { return memsim.FormatBytes(b) }
