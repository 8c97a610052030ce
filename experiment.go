package pgti

import (
	"context"
	"fmt"
	"time"

	"pgti/internal/core"
	"pgti/internal/dataset"
)

// Event is the typed notification stream of a running experiment (see
// WithEvents): epoch ends, autotune lock-in, memory high-water marks, and
// OOM. Events are delivered synchronously from the training goroutine that
// produced them, so hooks must be fast and must not call back into the
// experiment.
type Event = core.Event

// The concrete event types.
type (
	// EpochEvent fires after every completed epoch with its curve row.
	EpochEvent = core.EpochEvent
	// AutotuneEvent fires when the gradient-bucket autotuner locks in.
	AutotuneEvent = core.AutotuneEvent
	// MemoryEvent fires when the system tracker's high-water mark grows.
	MemoryEvent = core.MemoryEvent
	// OOMEvent fires when a memory cap is exhausted.
	OOMEvent = core.OOMEvent
	// RepartitionEvent fires after each applied elastic chunk migration
	// (see WithRepartition) with the epoch, the shards involved, the moved
	// node count, and the new edge cut.
	RepartitionEvent = core.RepartitionEvent
)

// Predictor is the warm, goroutine-safe inference handle returned by
// Experiment.Predictor after Fit: Predict forecasts from a raw input
// Window, PredictTest serves the held-out test windows with ground truth —
// byte-for-byte the same computation as WithForecasts.
type Predictor = core.Predictor

// Window is one raw input window for Predictor.Predict: Horizon time steps
// of all node features in original signal units, row-major
// [step][node][feature].
type Window = core.Window

// Typed errors of the experiment API. The constructors and Fit wrap them,
// so callers use errors.Is / errors.As rather than string matching.
var (
	// ErrUnknownDataset is wrapped by NewExperiment, NewStream and
	// EstimatePolaris when the dataset name matches nothing.
	ErrUnknownDataset = dataset.ErrUnknownDataset
	// ErrNotFitted is wrapped by Predictor and Eval before Fit completed.
	ErrNotFitted = core.ErrNotFitted
	// ErrFitted is wrapped by Fit when called twice on one experiment.
	ErrFitted = core.ErrFitted
)

// InvalidConfigError reports an illegal option combination (e.g. spatial
// sharding without the dist-index strategy); match with errors.As and
// inspect Field/Reason.
type InvalidConfigError = core.InvalidConfigError

// OOMError is the typed out-of-memory error surfaced by Fit when a memory
// cap set via WithMemoryCaps is exhausted; the partial Report carries the
// same outcome as Report.OOM.
type OOMError = core.OOMError

// GradStack groups the collective-stack knobs of the gradient exchange:
// the AllReduce algorithm, the simulated node topology, fp16 compression,
// the bucket-size autotuner, and an explicit bucket cap. Zero value =
// defaults (bucketed overlapping ring, flat topology, fp64, no sweep).
type GradStack struct {
	Algo        GradAlgo
	Topology    Topology
	FP16        bool
	AutoTune    bool
	BucketBytes int64
}

// Option configures an Experiment (see the With* constructors). Options
// write the engine's own configuration — the struct the trainer reads and
// the one validation table checks — so an option means the same thing
// wherever it is applied: NewExperiment, Stream.Retrain, or a per-round
// RetrainOptions.RoundOptions hook.
type Option func(*core.Config)

// WithModel selects the forecasting architecture (default ModelPGTDCRNN).
func WithModel(m Model) Option { return func(c *core.Config) { c.Model = m } }

// WithStrategy selects the training pipeline (default StrategyBaseline).
func WithStrategy(s Strategy) Option { return func(c *core.Config) { c.Strategy = s } }

// WithWorkers sets the data-parallel worker count for distributed
// strategies.
func WithWorkers(n int) Option { return func(c *core.Config) { c.Replicas = n } }

// WithScale shrinks the dataset to fit the host (0 < scale <= 1).
func WithScale(scale float64) Option { return func(c *core.Config) { c.Scale = scale } }

// WithBatchSize sets the per-worker batch size (default 32).
func WithBatchSize(n int) Option { return func(c *core.Config) { c.BatchSize = n } }

// WithEpochs sets the total epoch budget (default 1). Under WithResume the
// budget counts from epoch 0: a run resumed at epoch k trains epochs
// [k, n).
func WithEpochs(n int) Option { return func(c *core.Config) { c.Epochs = n } }

// WithLR sets the learning rate (default 0.01).
func WithLR(lr float64) Option { return func(c *core.Config) { c.LR = lr } }

// WithLRScaling applies the linear learning-rate scaling rule for large
// global batches.
func WithLRScaling() Option { return func(c *core.Config) { c.UseLRScaling = true } }

// WithHidden sets the hidden width (default 32).
func WithHidden(n int) Option { return func(c *core.Config) { c.Hidden = n } }

// WithDiffusionSteps sets the graph-diffusion hop count K (default 2).
func WithDiffusionSteps(k int) Option { return func(c *core.Config) { c.K = k } }

// WithSeed seeds all randomness (dataset generation, init, shuffling).
func WithSeed(seed uint64) Option { return func(c *core.Config) { c.Seed = seed } }

// WithShuffle explicitly selects the shuffling strategy — on every strategy,
// single-GPU ones included — and an explicit choice always wins:
// WithShuffle(ShuffleGlobal) forces global shuffling on any strategy. Omit it to accept the strategy's default
// (global; batch for StrategyGenDistIndex).
func WithShuffle(s Shuffle) Option {
	return func(c *core.Config) {
		c.Sampler = s
		c.SamplerSet = true
	}
}

// WithGradStack configures the gradient-exchange collective stack.
func WithGradStack(gs GradStack) Option {
	return func(c *core.Config) {
		c.Algo = gs.Algo
		c.Topology = gs.Topology
		c.FP16 = gs.FP16
		c.AutoTuneBuckets = gs.AutoTune
		c.BucketBytes = gs.BucketBytes
	}
}

// WithSpatial partitions the sensor graph into shards node blocks,
// multiplying the worker grid into a 2D (spatial x data) layout: each
// worker holds only its ~N/shards share of the node features, halo rows
// travel within replica groups and gradients reduce within shard groups.
// Requires StrategyDistIndex and a graph-convolutional model.
func WithSpatial(shards int) Option {
	return func(c *core.Config) { c.Shards = shards }
}

// WithRepartition enables elastic chunk-based repartitioning on the hybrid
// grid: at each epoch boundary the workers agree on a per-shard load vector
// (the epoch's accumulated step compute) and, once the heaviest shard
// exceeds threshold x the lightest, migrate a chunk of chunkSize owned
// nodes toward the light shard — picked by adjacency affinity so the edge
// cut stays tight — rebuilding row blocks and halo routing in place. Each
// applied move emits a typed RepartitionEvent (see WithEvents) and charges
// the modeled migration transfer to the virtual clock; training results are
// preserved to fp64 tolerance (the moved loss weights reassociate the same
// sums). Requires WithSpatial.
func WithRepartition(chunkSize int, threshold float64) Option {
	return func(c *core.Config) {
		c.Repartition.ChunkSize = chunkSize
		c.Repartition.Threshold = threshold
	}
}

// WithMeasuredRepartition feeds the repartitioner's epoch-boundary load
// vector from the measured per-shard step compute — the straggler-scaled
// charge the virtual clock actually advanced by — instead of the structural
// node-share charge. The structural vector is blind to an injected
// FaultStraggler (the shard's node share doesn't change when it slows
// down); the measured vector sees the inflation and triggers the migration.
// Requires WithRepartition.
func WithMeasuredRepartition() Option {
	return func(c *core.Config) { c.Repartition.Measured = true }
}

// WithNodeWeights injects per-node structural compute weights (len must
// equal the graph's node count): with WithComputeCost set, each spatial
// shard's modeled step charge scales by its owned share of the total weight
// instead of its node-count share, and the initial partition balances the
// weighted load. The skew-injection hook behind the repartitioning studies;
// loss weighting keeps the node-count share, so curves are unchanged.
// Requires WithSpatial.
func WithNodeWeights(w []float64) Option {
	return func(c *core.Config) { c.NodeWeights = w }
}

// WithComputeCost replaces measured wall time with a modeled per-batch
// compute cost on the virtual clock, on every strategy (the single-GPU ones
// train on the same loop as a 1x1 grid). With WithAssembleCost also set, the
// run's entire modeled timeline becomes a pure function of the
// configuration — machine-independent and bitwise reproducible — which is
// what the streaming replay contract and the gated benchmarks pin.
func WithComputeCost(fn func(batchItems int) time.Duration) Option {
	return func(c *core.Config) { c.ComputeCost = fn }
}

// WithAssembleCost supplies the modeled host-side batch collation cost.
// Serial runs expose it ahead of every step; under WithPrefetch only each
// epoch's leading assembly stays exposed (the rest hides under compute, and
// the epoch's last train step hides the first eval batch's assembly).
func WithAssembleCost(fn func(batchItems int) time.Duration) Option {
	return func(c *core.Config) { c.AssembleCost = fn }
}

// WithPrefetch double-buffers batch assembly on the training hot path: a
// per-epoch collator builds batch s+1 while step s trains, so only the
// epoch's leading assembly stays exposed on the modeled timeline. Batch
// contents are bitwise identical to the serial path — the curve does not
// change. Ignored when a partition store supplies the data
// (StrategyGenDistIndex with multiple workers), where fetch latency is
// modeled instead.
func WithPrefetch() Option { return func(c *core.Config) { c.Prefetch = true } }

// WithStaleness opts into bounded-staleness gradient application: step s
// applies step s-k's fully synced gradient with error compensation,
// letting the two-stage gradient sync of up to k steps stay in flight
// behind compute. k = 0 keeps the synchronous schedule and is
// bitwise-pinned to it. Requires spatial sharding (WithSpatial on
// StrategyDistIndex); replicas stay bitwise identical — the queue drains
// at every epoch end, so the update count matches the synchronous run.
func WithStaleness(k int) Option {
	return func(c *core.Config) { c.Staleness = k }
}

// WithMemoryCaps caps the byte-exact memory trackers in GiB (0 =
// unlimited). A run exceeding the system cap reports OOM.
func WithMemoryCaps(systemGB, gpuGB float64) Option {
	return func(c *core.Config) {
		c.SystemMemory = int64(systemGB * float64(gib))
		c.GPUMemory = int64(gpuGB * float64(gib))
	}
}

// WithMissingData zeroes each observation with probability frac and trains
// with the masked-MAE loss. Single-GPU strategies only: a masked mean over
// shards or replicas is not the mean of their masked means, so the
// combination with a distributed strategy is rejected.
func WithMissingData(frac float64) Option {
	return func(c *core.Config) { c.MissingFrac = frac }
}

// WithWarmStart initializes the model parameters from a checkpoint before
// training (optimizer state and epoch counter start fresh).
func WithWarmStart(path string) Option {
	return func(c *core.Config) { c.LoadCheckpoint = path }
}

// WithResume restores the full training state — parameters, Adam moments,
// and the epoch cursor — from a checkpoint written by WithSaveCheckpoint,
// and continues deterministically: the resumed curve matches a
// straight-through run's tail bit for bit.
func WithResume(path string) Option {
	return func(c *core.Config) { c.ResumeCheckpoint = path }
}

// WithSaveCheckpoint writes the trained parameters plus the resumable
// optimizer trailer after Fit (rank 0's replica for distributed
// strategies).
func WithSaveCheckpoint(path string) Option {
	return func(c *core.Config) { c.SaveCheckpoint = path }
}

// WithForecasts attaches predictions for the first n test windows to the
// report at Eval.
func WithForecasts(n int) Option {
	return func(c *core.Config) { c.EmitForecasts = n }
}

// WithTestEval forces the post-training test-split MSE evaluation for
// distributed strategies (single-GPU strategies always evaluate).
func WithTestEval() Option {
	return func(c *core.Config) { c.EvalTest = true }
}

// WithEvents streams typed Events (epoch end, autotune lock-in, memory
// high-water, OOM) to fn while Fit runs.
func WithEvents(fn func(Event)) Option {
	return func(c *core.Config) { c.Events = core.EventFunc(fn) }
}

// Experiment is the staged, composable training lifecycle:
//
//	exp, _ := pgti.NewExperiment("PeMS-BAY",
//		pgti.WithStrategy(pgti.StrategyDistIndex),
//		pgti.WithWorkers(4), pgti.WithEpochs(20))
//	report, err := exp.Fit(ctx)      // cancellable, streams Events
//	pred, _ := exp.Predictor()       // warm inference handle
//	forecast, _ := pred.Predict(window)
//
// Stages auto-advance (Fit runs Open and Build if the caller has not), but
// can be driven individually to recompose the engine: Open resolves the
// dataset and pipeline, Build the model and distributed grid, Fit trains,
// Eval computes test metrics, Predictor serves.
type Experiment struct {
	eng *core.Engine
}

// NewExperiment configures a staged experiment on the named dataset.
// Illegal option combinations return typed errors (*InvalidConfigError,
// ErrUnknownDataset) immediately — nothing runs until Open/Fit.
func NewExperiment(datasetName string, opts ...Option) (*Experiment, error) {
	cfg, err := configure(datasetName, opts)
	if err != nil {
		return nil, err
	}
	return &Experiment{eng: core.NewEngine(cfg)}, nil
}

// configure resolves the named dataset, applies opts to a fresh engine
// configuration over it, and checks the result against the validation table.
func configure(datasetName string, opts []Option) (core.Config, error) {
	meta, err := dataset.ByName(datasetName)
	if err != nil {
		return core.Config{}, fmt.Errorf("pgti: %w (available: %v)", err, Datasets())
	}
	cfg := core.Config{Meta: meta}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("pgti: %w", err)
	}
	return cfg, nil
}

// Open resolves the dataset and data pipeline (generation, preprocessing,
// splits). Idempotent; Fit runs it automatically when skipped.
func (e *Experiment) Open() error { return e.eng.Open() }

// Build constructs the model, injects checkpoint state, and lays out the
// distributed grid and per-worker memory accounting. Idempotent.
func (e *Experiment) Build() error { return e.eng.Build() }

// Fit trains, honoring ctx mid-epoch: on cancellation it returns the
// partial report (completed epochs' curve) alongside an error wrapping
// ctx.Err(). An exhausted memory cap returns the OOM-marked report
// alongside a typed *OOMError. The report is also retained on the
// experiment (see Report).
func (e *Experiment) Fit(ctx context.Context) (*Report, error) {
	err := e.eng.Fit(ctx)
	return e.Report(), err
}

// Eval computes post-training test metrics (test MSE; forecasts when
// WithForecasts was given) and returns the updated report.
func (e *Experiment) Eval() (*Report, error) {
	err := e.eng.Eval()
	return e.Report(), err
}

// Predictor returns the warm, goroutine-safe inference handle over the
// trained parameters and normalization statistics. Requires a completed
// Fit (wraps ErrNotFitted otherwise).
//
// Predictor serves one window per call directly off the experiment's own
// parameters; it stays supported and bitwise-pinned, but for production
// serving prefer NewServer, which coalesces concurrent callers into batched
// forwards (bitwise identical to Predictor's results), pools warm replicas,
// sheds overload with typed errors, and swaps in retrained weights without
// draining.
func (e *Experiment) Predictor() (*Predictor, error) { return e.eng.Predictor() }

// Report returns the run's (possibly partial) report, or nil before Open. It
// is a shallow copy of the engine's: a report the caller holds is not
// mutated by a later stage.
func (e *Experiment) Report() *Report {
	rep := e.eng.Report()
	if rep == nil {
		return nil
	}
	held := *rep
	return &held
}
