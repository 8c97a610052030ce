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
	"time"

	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/fault"
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

// Config parameterizes a measured run.
type Config struct {
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

	Workers   int // distributed strategies only
	BatchSize int
	Epochs    int
	LR        float64
	// UseLRScaling applies the linear LR scaling rule for large global
	// batches.
	UseLRScaling bool
	ClipNorm     float64
	Hidden       int
	K            int
	Seed         uint64

	// SystemMemory and GPUMemory cap the trackers (0 = unlimited); a run
	// that exceeds SystemMemory reports OOM instead of failing.
	SystemMemory int64
	GPUMemory    int64

	// Sampler overrides the shuffling strategy (defaults: batch for
	// GenDistIndex, global for every other strategy).
	Sampler ddp.SamplerKind
	// SamplerSet records that Sampler was chosen explicitly, so a deliberate
	// GlobalShuffle (the zero value) is not replaced by the strategy default.
	SamplerSet bool

	// GradBucketBytes caps one gradient bucket of the bucketed overlapping
	// AllReduce (0 = ddp.DefaultBucketBytes).
	GradBucketBytes int64
	// GradAlgo selects the collective algorithm (ring | flat |
	// hierarchical).
	GradAlgo ddp.GradAlgo
	// Topology describes the simulated node layout for the hierarchical
	// AllReduce (intra-node traffic priced at NVLink-class bandwidth).
	Topology cluster.Topology
	// GradFP16 ships gradient buckets fp16-quantized with error feedback.
	GradFP16 bool
	// GradAutoTune sweeps bucket sizes over the first epoch and locks in
	// the winner (see ddp.AutotuneCandidates).
	GradAutoTune bool

	// Prefetch double-buffers batch assembly: a per-epoch collator builds
	// batch s+1 while step s trains, so only the epoch's leading assembly
	// is exposed on the timeline. Batch contents are bitwise identical to
	// the serial path. Ignored when a PartitionStore supplies the data
	// (GenDistIndex multi-worker), where fetch latency is modeled instead.
	Prefetch bool
	// AssembleCost models the collation cost of one batch on the virtual
	// timeline (nil = free, the legacy behavior). The serial path pays it
	// ahead of every step; with Prefetch it overlaps step compute.
	AssembleCost func(batchItems int) time.Duration
	// ComputeCost models one training step's compute on the virtual
	// timeline (nil = measure wall time). A fully-modeled run is
	// machine-independent: curve and clock are bitwise reproducible. On the
	// single-GPU strategies the clock additionally carries the H2D charges
	// (one pageable copy per batch; one staging copy under GPUIndex).
	ComputeCost func(batchItems int) time.Duration
	// Staleness bounds the gradient-application lag in steps: step s
	// applies step s-Staleness's synced gradient with error compensation,
	// letting the two-stage sync of up to Staleness steps stay in flight.
	// Zero keeps the synchronous schedule (bitwise-pinned). Requires
	// spatial sharding (Spatial.Shards >= 2) with bucketed gradient sync.
	Staleness int

	// Spatial composes spatial graph sharding with the DDP replicas into a
	// 2D (spatial x data) process grid: the node set splits into
	// Spatial.Shards blocks, each of the Workers replicas spreads over one
	// replica group of shard workers, halo rows travel within replica
	// groups, and gradient AllReduce runs within shard groups. Requires the
	// DistIndex strategy and a graph-convolutional model (not ST-LLM).
	Spatial shard.Spatial

	// Repartition enables elastic chunk-based repartitioning for spatially
	// sharded runs: when the per-shard epoch compute skews past the
	// threshold, a chunk of nodes migrates from the heaviest to the lightest
	// shard and the halo routing rebuilds mid-run (surfaced as
	// RepartitionEvent on the event stream). Requires Spatial.Shards >= 2.
	Repartition shard.Repartition

	// NodeWeights models per-node compute cost (len = graph nodes after
	// scaling): the initial partition balances weight instead of node count
	// (graph.PartitionWeighted) and the sharded trainer scales each shard's
	// structural compute by its weight share. Loss weighting stays
	// count-based, so the reported curve is unchanged by weights alone.
	// Requires spatial sharding.
	NodeWeights []float64

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

	// Faults arms a distributed run with a deterministic fault plan (see
	// internal/fault): scheduled worker crashes are detected via a modeled
	// timeout, training rolls back to the last in-memory epoch-boundary
	// snapshot, the grid rebuilds from the survivors (replica dimension
	// shrinks; a lost shard's nodes re-split across the remaining shards),
	// and the run continues — surfaced as RecoveryEvent on the event stream
	// and Recoveries/RecoveryTime on the report. Straggler and link-degrade
	// windows inflate the affected compute/transfer charges in place. Nil
	// means no faults; an armed-but-empty plan is bitwise identical to nil.
	Faults *fault.Plan

	// Events, when set, receives the engine's typed event stream during
	// Fit: epoch ends, autotune lock-in, memory high-water marks, OOM,
	// worker-loss recovery. See the Event type for the delivery contract.
	Events EventFunc

	// Trace, when non-nil, records virtual-clock spans (compute, batch
	// assembly, H2D and remote fetches, halo exchange, gradient sync, exposed
	// communication) and per-worker counters into the recorder during Fit,
	// on every strategy. Nil disables
	// tracing entirely; a traced run is bitwise identical to an untraced
	// one — the recorder only observes times the simulation already
	// computes, it never advances the clock.
	Trace *trace.Recorder
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
	spatial := c.Spatial.Enabled()
	world := 1
	if c.Workers > 1 {
		world = c.Workers
	}
	if spatial {
		world *= c.Spatial.Shards
	}
	if !(c.Scale >= 0 && c.Scale <= 1) { // also rejects NaN
		return invalidf("Scale", "scale %v outside (0, 1] (0 selects full size)", c.Scale)
	}
	if !(c.MissingFrac >= 0 && c.MissingFrac < 1) {
		return invalidf("MissingFrac", "missing fraction %v outside [0, 1)", c.MissingFrac)
	}
	if c.MissingFrac > 0 && dist {
		return invalidf("MissingFrac", "missing-data training needs a single-GPU strategy (a masked mean across workers is not the mean of their masked means), got %v", c.Strategy)
	}
	if c.Workers > 1 && !dist {
		return invalidf("Workers", "%d workers need a distributed strategy, got %v", c.Workers, c.Strategy)
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
		// shard-mean, topology-priced): an explicit GradAlgo has nothing to
		// select and is rejected rather than silently ignored.
		if c.GradAlgo != ddp.GradAlgoRing {
			return invalidf("Spatial", "GradAlgo is not supported with spatial sharding (the two-stage grouped collective is fixed)")
		}
	}
	if c.GradFP16 && !dist {
		return invalidf("GradStack", "fp16 gradient compression needs a distributed strategy (a single GPU ships no gradients)")
	}
	if c.GradAutoTune && c.GradAlgo == ddp.GradAlgoFlat {
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
		return invalidf("Repartition", "elastic repartitioning requires spatial sharding (Spatial.Shards >= 2 on dist-index)")
	}
	if len(c.NodeWeights) > 0 && !spatial {
		return invalidf("NodeWeights", "node weights scale per-shard compute and need spatial sharding (Spatial.Shards >= 2)")
	}
	if c.Staleness < 0 {
		return invalidf("Staleness", "staleness bound %d is negative", c.Staleness)
	}
	if c.Staleness > 0 && !spatial {
		return invalidf("Staleness", "bounded staleness requires spatial sharding (Spatial.Shards >= 2 on dist-index), got %v", c.Strategy)
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
	if c.Workers < 1 {
		c.Workers = 1
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
