// Package core composes the substrates into the six end-to-end strategies
// the paper evaluates:
//
//	Baseline      — Algorithm-1 standard batching, single GPU
//	Index         — index-batching, single GPU (§4.1)
//	GPUIndex      — GPU-resident index-batching, single GPU (§4.1)
//	BaselineDDP   — standard DDP with on-demand Dask data fetches (§5)
//	DistIndex     — distributed-index-batching, global shuffling (§4.2)
//	GenDistIndex  — generalized-distributed-index-batching, partitioned
//	                data + batch-level shuffling (§5.4)
//
// Every strategy trains on the one grid trainer (internal/shard): the
// single-GPU strategies on a 1x1 grid, differing only in their data source,
// their per-batch H2D charge and their memory accounting.
//
// Run executes a strategy for real (measured mode) at a dataset scale that
// fits the host, with byte-exact memory accounting and optional capacity
// limits that reproduce the paper's OOM behavior. Paper-scale estimates are
// produced by internal/perfmodel and composed by internal/experiments.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/memsim"
	"pgti/internal/nn"
	"pgti/internal/shard"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// Strategy selects the end-to-end pipeline.
type Strategy int

// The six strategies of the paper.
const (
	Baseline Strategy = iota
	Index
	GPUIndex
	BaselineDDP
	DistIndex
	GenDistIndex
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case Index:
		return "index"
	case GPUIndex:
		return "gpu-index"
	case BaselineDDP:
		return "baseline-ddp"
	case DistIndex:
		return "dist-index"
	case GenDistIndex:
		return "gen-dist-index"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// IsDistributed reports whether the strategy runs on multiple workers.
func (s Strategy) IsDistributed() bool {
	return s == BaselineDDP || s == DistIndex || s == GenDistIndex
}

// ModelKind selects the forecasting model.
type ModelKind int

// The model families of the paper's evaluation.
const (
	ModelPGTDCRNN ModelKind = iota
	ModelDCRNN
	ModelA3TGCN
	ModelSTLLM
)

// String implements fmt.Stringer.
func (m ModelKind) String() string {
	switch m {
	case ModelDCRNN:
		return "dcrnn"
	case ModelA3TGCN:
		return "a3tgcn"
	case ModelSTLLM:
		return "st-llm"
	default:
		return "pgt-dcrnn"
	}
}

// Config parameterizes a measured run. The embedded shard.Config is the
// trainer's configuration, which the options write directly; the fields
// below are what the engine adds around the trainer. Replicas is the
// data-parallel worker count (distributed strategies only). Shards >= 2
// splits the node set into that many blocks, a 2D (spatial x data) grid
// that needs the dist-index strategy and a graph-convolutional model;
// Staleness, Repartition and NodeWeights need it too; NodeWeights, one per
// node of the scaled graph, also balance the initial partition unless
// StaticPartition is set. Faults needs a
// distributed strategy: fitGrid rolls a worker loss back to the last
// epoch-boundary snapshot and continues on the survivors. The engine sets
// Net, Feed, Plan, Init, StartEpoch and Ctx itself (and Loss under
// MissingFrac), and wires the On* hooks to Events and the recovery loop.
type Config struct {
	shard.Config

	Meta     dataset.Meta
	Scale    float64 // dataset scale factor in (0, 1]; 0/1 = full size
	Model    ModelKind
	Strategy Strategy

	// Provided injects a pre-materialized dataset instead of generating one
	// from Meta: Open uses Provided.Meta, Provided.Data and Provided.Graph
	// verbatim (no Scale, no MissingFrac injection). The streaming retrainer
	// materializes each window through the same incremental generator the
	// offline path uses, so a one-window replay reproduces the offline run
	// bitwise.
	Provided *dataset.Dataset

	// WarmParams initializes the model from an in-memory parameter snapshot
	// (nn.SnapshotParams layout) instead of from a checkpoint file — the
	// warm-start hook the rolling retrainer uses between windows. Mutually
	// exclusive with LoadCheckpoint; the optimizer starts fresh.
	WarmParams [][]float64

	Hidden int
	K      int

	// SystemMemory and GPUMemory cap the trackers (0 = unlimited); a run
	// that exceeds SystemMemory reports OOM instead of failing.
	SystemMemory int64
	GPUMemory    int64

	// SamplerSet records that Sampler was chosen explicitly, so a deliberate
	// GlobalShuffle (the zero value) is not replaced by the strategy default
	// (batch for GenDistIndex, global for every other strategy).
	SamplerSet bool

	// StaticPartition keeps the count-based initial partition even when
	// NodeWeights skew modeled compute — the elastic-repartitioning
	// ablation setup: start imbalanced and let mid-run chunk migration
	// (Repartition) correct what the up-front weighted partition would
	// have prevented.
	StaticPartition bool

	// MissingFrac injects sensor dropouts: each (entry, node) observation
	// is zeroed with this probability before preprocessing, and training
	// switches to the masked-MAE loss so missing readings contribute no
	// gradient (the METR-LA/PeMS missing-data convention). Single-GPU
	// strategies only: a masked mean over several workers' batches is not the
	// weighted mean of their masked means, so Validate rejects it on a
	// distributed strategy.
	MissingFrac float64

	// LoadCheckpoint initializes the model parameters from a checkpoint file
	// before training — a warm start: optimizer state and the epoch cursor
	// begin fresh (distributed strategies load it into every replica, which
	// stays bitwise identical). ResumeCheckpoint instead restores the full
	// training state — parameters, optimizer moments and the epoch cursor —
	// so training continues exactly where the saved run stopped: Epochs then
	// means the TOTAL epoch budget, and the resumed curve matches a
	// straight-through run's tail bit for bit. The two are mutually exclusive
	// initializers. SaveCheckpoint writes the trained parameters plus the
	// optimizer trailer afterwards (rank 0's replica for distributed
	// strategies — replicas are identical, so rank 0 is the run). A cancelled
	// Fit also writes SaveCheckpoint (completed epochs survive Ctrl-C);
	// resuming such a checkpoint redoes the interrupted epoch as a warm
	// continuation rather than a bitwise replay.
	LoadCheckpoint   string
	ResumeCheckpoint string
	SaveCheckpoint   string

	// EmitForecasts, when > 0, runs inference on the first N test snapshots
	// after training and attaches the predictions (in original signal
	// units) to the report. Distributed strategies evaluate rank 0's
	// replica.
	EmitForecasts int

	// EvalTest forces the post-training test-split evaluation for
	// distributed strategies (single-GPU strategies always evaluate, the
	// legacy behavior).
	EvalTest bool

	// Events, when set, receives the engine's typed event stream during
	// Fit: epoch ends, autotune lock-in, memory high-water marks, OOM,
	// worker-loss recovery. See the Event type for the delivery contract.
	Events EventFunc
}

// CheckScale is Validate's rule for Scale, for a caller that reads a scale
// before it builds a Config (the command line).
func CheckScale(scale float64) error {
	if !(scale >= 0 && scale <= 1) { // also rejects NaN
		return invalidf("Scale", "scale %v outside (0, 1] (0 selects full size)", scale)
	}
	return nil
}

// Validate is the one table of illegal configurations: every entrance to the
// trainer — the public options (NewExperiment, Stream.Retrain and its
// per-round options), Run, and a hand-built Engine — rejects the same config
// with the same typed *InvalidConfigError. It reads the config as given,
// before defaulting, so a zero field means "use the default" and is legal.
// The one rule left out needs the graph: buildGrid checks NodeWeights'
// length against the node count.
func (c *Config) Validate() error {
	switch c.Strategy {
	case Baseline, Index, GPUIndex, BaselineDDP, DistIndex, GenDistIndex:
	default:
		return invalidf("Strategy", "unknown strategy %v", c.Strategy)
	}
	dist := c.Strategy.IsDistributed()
	spatial := c.Shards > 1
	world := 1
	if c.Replicas > 1 {
		world = c.Replicas
	}
	if spatial {
		world *= c.Shards
	}
	if err := CheckScale(c.Scale); err != nil {
		return err
	}
	if !(c.MissingFrac >= 0 && c.MissingFrac < 1) {
		return invalidf("MissingFrac", "missing fraction %v outside [0, 1)", c.MissingFrac)
	}
	if c.MissingFrac > 0 && dist {
		return invalidf("MissingFrac", "missing-data training needs a single-GPU strategy (a masked mean across workers is not the mean of their masked means), got %v", c.Strategy)
	}
	if c.SystemMemory < 0 {
		return invalidf("SystemMemory", "system memory cap %d B is negative (0 is unlimited)", c.SystemMemory)
	}
	if c.GPUMemory < 0 {
		return invalidf("GPUMemory", "GPU memory cap %d B is negative (0 is unlimited)", c.GPUMemory)
	}
	if !(c.LR < math.Inf(1)) { // NaN and +Inf; zero or negative selects the default
		return invalidf("LR", "learning rate %v is not finite", c.LR)
	}
	if c.Replicas > 1 && !dist {
		return invalidf("Workers", "%d workers need a distributed strategy, got %v", c.Replicas, c.Strategy)
	}
	if spatial {
		if c.Strategy != DistIndex {
			return invalidf("Spatial", "spatial sharding requires the dist-index strategy, got %v", c.Strategy)
		}
		if c.Model == ModelSTLLM {
			return invalidf("Spatial", "spatial sharding is unsupported for %v (full spatial attention has no node partition)", c.Model)
		}
		// A sharded grid's bucketed two-stage sync composes with fp16
		// compression, bucket-size caps and the first-epoch autotuner, but
		// its collective algorithm is fixed (grouped replica-sum →
		// shard-mean, topology-priced): an explicit Algo has nothing to
		// select and is rejected rather than silently ignored.
		if c.Algo != ddp.GradAlgoRing {
			return invalidf("Spatial", "GradStack.Algo is not supported with spatial sharding (the two-stage grouped collective is fixed)")
		}
	}
	if c.FP16 && !dist {
		return invalidf("GradStack", "fp16 gradient compression needs a distributed strategy (a single GPU ships no gradients)")
	}
	if c.BucketBytes < 0 {
		return invalidf("GradStack", "bucket cap %d bytes must not be negative", c.BucketBytes)
	}
	if c.AutoTuneBuckets && c.Algo == ddp.GradAlgoFlat {
		return invalidf("GradStack", "the flat algorithm has no buckets to autotune")
	}
	if t := c.Topology; t.Nodes > 0 && t.GPUsPerNode > 0 && world < t.Nodes*t.GPUsPerNode {
		return invalidf("Workers", "topology declares a %dx%d grid (%d slots) but the run has only %d workers",
			t.Nodes, t.GPUsPerNode, t.Nodes*t.GPUsPerNode, world)
	}
	if err := c.Repartition.Validate(); err != nil {
		return invalidf("Repartition", "%v", err)
	}
	if c.Repartition.Enabled() && !spatial {
		return invalidf("Repartition", "elastic repartitioning requires spatial sharding (Shards >= 2 on dist-index)")
	}
	if len(c.NodeWeights) > 0 && !spatial {
		return invalidf("NodeWeights", "node weights scale per-shard compute and need spatial sharding (Shards >= 2)")
	}
	for i, w := range c.NodeWeights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return invalidf("NodeWeights", "node %d has weight %v, want a finite value", i, w)
		}
	}
	if c.Staleness < 0 {
		return invalidf("Staleness", "staleness bound %d is negative", c.Staleness)
	}
	if c.Staleness > 0 && !spatial {
		return invalidf("Staleness", "bounded staleness requires spatial sharding (Shards >= 2 on dist-index), got %v", c.Strategy)
	}
	if c.LoadCheckpoint != "" && c.ResumeCheckpoint != "" {
		return invalidf("Resume", "a warm start (LoadCheckpoint) and a resume (ResumeCheckpoint) are mutually exclusive initializers")
	}
	if len(c.WarmParams) > 0 && (c.LoadCheckpoint != "" || c.ResumeCheckpoint != "") {
		return invalidf("WarmParams", "WarmParams and a checkpoint file are mutually exclusive initializers")
	}
	if c.Faults != nil {
		if !dist {
			return invalidf("Faults", "fault injection requires a distributed strategy, got %v", c.Strategy)
		}
		if err := c.Faults.Validate(world); err != nil {
			return invalidf("Faults", "%v", err)
		}
	}
	if c.Provided != nil {
		if c.Scale > 0 && c.Scale < 1 {
			return invalidf("Provided", "a provided dataset cannot be rescaled (Scale %g)", c.Scale)
		}
		if c.MissingFrac > 0 {
			return invalidf("Provided", "missing-data injection would mutate the provided dataset; inject before providing it")
		}
	}
	return nil
}

func (c *Config) fillDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.BatchSize < 1 {
		c.BatchSize = 32
	}
	if c.Epochs < 1 {
		c.Epochs = 1
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.Hidden < 1 {
		c.Hidden = 32
	}
	if c.K < 1 {
		c.K = 2
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	if !c.SamplerSet && c.Strategy == GenDistIndex {
		c.Sampler = ddp.BatchShuffle
	}
}

// Report is the outcome of a measured run.
type Report struct {
	Strategy Strategy
	Model    ModelKind
	Dataset  string
	Workers  int

	// Accounting is the grid trainer's ledger, stitched across recoveries:
	// Curve also holds the epochs before the last worker loss, VirtualTime
	// the rolled-back attempts and GPUIndex's one staging copy.
	shard.Accounting

	WallTime time.Duration

	// SpatialShards is the spatial shard count of the run (1 = unsharded);
	// EdgeCut counts support entries crossing shards in the initial
	// partition.
	SpatialShards int
	EdgeCut       int
	// Recoveries counts the worker-loss recoveries the run survived
	// (Config.Faults; 0 when unarmed or fault-free). RecoveryTime is the
	// modeled time the faults cost: rolled-back progress since the last
	// snapshot plus the detection and re-plan/re-fill charges — the overhead
	// the gated fault benchmarks report against a fault-free run.
	Recoveries   int
	RecoveryTime time.Duration

	// PerWorkerBytes is one worker's modeled host footprint (replica +
	// staging + its data share) for distributed strategies — the quantity
	// the N/P memory claim is about.
	PerWorkerBytes int64

	PeakSystemBytes int64
	PeakGPUBytes    int64
	MemorySeries    []memsim.Sample

	// RetainedDataBytes is the post-preprocessing footprint of the data
	// structures (eq. 1 for standard, eq. 2 for index).
	RetainedDataBytes int64

	OOM      bool
	OOMError string

	// TestMSE is the post-training test-split MSE in standardized units
	// (single-GPU strategies only; 0 when not evaluated). Table 6 reports
	// this metric for A3T-GCN.
	TestMSE float64

	// Forecasts holds post-training predictions for test snapshots when
	// Config.EmitForecasts > 0.
	Forecasts []Forecast

	// Trace is the aggregated span/counter summary of the run when
	// Config.Trace was set (nil otherwise). The full event stream stays in
	// the recorder for export.
	Trace *trace.Summary
}

// Forecast is one test-window prediction in original signal units, laid
// out row-major as [step][node].
type Forecast struct {
	SnapshotIndex  int
	Horizon, Nodes int
	Pred           []float64
	Actual         []float64
}

// MAE returns the forecast's mean absolute error.
func (f Forecast) MAE() float64 {
	var sum float64
	for i := range f.Pred {
		d := f.Pred[i] - f.Actual[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	if len(f.Pred) == 0 {
		return 0
	}
	return sum / float64(len(f.Pred))
}

// buildModel constructs the configured model over the dataset's graph.
func buildModel(kind ModelKind, seed uint64, supports []*sparse.CSR, in, hidden, k, horizon, nodes int) nn.SeqModel {
	return buildModelOn(kind, seed, nn.WrapSupports(supports), in, hidden, k, horizon, nodes)
}

// Run executes the configured strategy in measured mode: the staged Engine
// driven straight through (Open → Build → Fit → Eval). Out-of-memory is a
// result (Report.OOM), not an error — the experiments observe it, exactly as
// the paper's Figs. 2 and 6 plot crashed runs.
func Run(cfg Config) (*Report, error) {
	return NewEngine(cfg).runAll(context.Background())
}

// buildModelOn constructs the configured model over explicit propagators —
// full-graph supports or one shard's halo-exchanging blocks. ST-LLM attends
// over all nodes and takes no propagators (it has no sharded form).
func buildModelOn(kind ModelKind, seed uint64, props []nn.Propagator, in, hidden, k, horizon, nodes int) nn.SeqModel {
	rng := tensor.NewRNG(seed)
	switch kind {
	case ModelDCRNN:
		return nn.NewDCRNNOn(rng, props, nn.DCRNNConfig{In: in, Hidden: hidden, Layers: 2, K: k, Horizon: horizon})
	case ModelA3TGCN:
		return nn.NewA3TGCNOn(rng, props[0], in, hidden, horizon)
	case ModelSTLLM:
		return nn.NewSTLLMLite(rng, nodes, horizon, in, hidden, horizon)
	default:
		return nn.NewPGTDCRNNOn(rng, props, k, in, hidden, horizon)
	}
}
