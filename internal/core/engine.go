package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/device"
	"pgti/internal/graph"
	"pgti/internal/memsim"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/perfmodel"
	"pgti/internal/shard"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// engineStage tracks lifecycle progress.
type engineStage int

const (
	stageNew engineStage = iota
	stageOpened
	stageBuilt
	stageFitted
)

// Engine is the staged training lifecycle behind Run:
//
//	Open  — dataset generation, memory trackers, pipeline (preprocessing)
//	        and strategy resolution;
//	Build — model construction, checkpoint injection, the process grid
//	        (1x1 for the single-GPU strategies) and memory accounting;
//	Fit   — the grid trainer, cancellable via context and observable via
//	        the Config.Events stream;
//	Eval  — post-training test metrics and forecast emission;
//	Predictor — a warm, goroutine-safe inference handle over the trained
//	        parameters and normalization statistics.
//
// Stages auto-advance (Fit runs Open and Build if the caller has not), so
// Run is literally Open→Build→Fit→Eval. Open is also where Config.Validate
// runs for every entrance that did not already fail fast on it.
// Any stage may return a typed *OOMError; Run converts it into a reported
// outcome (Report.OOM), stage callers receive it as an error alongside the
// partially-filled Report.
type Engine struct {
	cfg   Config
	stage engineStage

	meta     dataset.Meta
	sys, gpu *memsim.Tracker
	report   *Report

	g        *graph.Graph
	supports []*sparse.CSR
	in       int

	// The data pipeline every strategy trains, evaluates and predicts from:
	// the materialized standard arrays (Baseline) or the index dataset, which
	// idx also names for the paths that need its rows (partition store,
	// recovery re-fill).
	data batching.Source
	idx  *batching.IndexDataset

	// The Shards x Replicas grid every strategy trains on: 1x1 for the
	// single-GPU strategies, Shards == 1 unless Config.Shards asks for more.
	factory       shard.ModelFactory
	trainCfg      shard.Config
	trainSupports []*sparse.CSR // supports trimmed to what the model diffuses over

	// Built state. After Fit, model/opt hold the trained parameters and
	// optimizer: a full-graph model carrying rank 0's parameters (identical
	// on every worker).
	model        nn.SeqModel
	opt          *nn.Adam
	split        batching.Split
	startEpoch   int
	fitAttempted bool

	peakEmitted int64
}

// NewEngine constructs an engine over cfg. No work happens until Open.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// Report returns the run's (possibly partial) report. It is valid after
// Open and grows as stages complete; after a cancelled Fit it holds the
// partial curve.
func (e *Engine) Report() *Report { return e.report }

func (e *Engine) emit(ev Event) {
	if e.cfg.Events != nil {
		e.cfg.Events(ev)
	}
}

// emitPeak reports system-tracker high-water growth since the last check.
func (e *Engine) emitPeak() {
	if e.cfg.Events == nil || e.sys == nil {
		return
	}
	if peak := e.sys.Peak(); peak > e.peakEmitted {
		e.peakEmitted = peak
		e.emit(MemoryEvent{Tracker: "system", PeakBytes: peak})
	}
}

// syncMem mirrors the trackers into the report so partial reports (OOM,
// cancellation) carry coherent accounting.
func (e *Engine) syncMem() {
	if e.report == nil {
		return
	}
	e.report.PeakSystemBytes = e.sys.Peak()
	e.report.PeakGPUBytes = e.gpu.Peak()
	e.report.MemorySeries = e.sys.Series()
	if e.cfg.Trace != nil {
		e.cfg.Trace.Gauge("memsim.system.peak.bytes", e.sys.Peak())
		e.cfg.Trace.Gauge("memsim.gpu.peak.bytes", e.gpu.Peak())
		e.report.Trace = e.cfg.Trace.Summary()
	}
}

// seal wraps a stage body: accumulates wall time, mirrors memory
// accounting, and marks the report on OOM (emitting OOMEvent) while still
// returning the typed error to the caller.
func (e *Engine) seal(start time.Time, err error) error {
	if e.report != nil {
		e.report.WallTime += time.Since(start)
	}
	e.syncMem()
	if err != nil {
		var oom *memsim.OOMError
		if errors.As(err, &oom) {
			e.report.OOM = true
			e.report.OOMError = err.Error()
			e.emit(OOMEvent{Err: err})
		}
	}
	return err
}

// Open resolves the dataset and the data pipeline: generation, optional
// failure injection, memory trackers, augmentation, preprocessing
// (standard or index-batched), and the train/val/test split. Idempotent.
func (e *Engine) Open() error {
	if e.stage >= stageOpened {
		return nil
	}
	start := time.Now()
	err := e.open()
	if e.report == nil {
		// Validation failed before the report skeleton existed.
		e.report = &Report{Strategy: e.cfg.Strategy, Model: e.cfg.Model}
		e.sys = memsim.NewTracker("system", 0)
		e.gpu = memsim.NewTracker("gpu", 0)
	}
	if err = e.seal(start, err); err != nil {
		return err
	}
	e.stage = stageOpened
	e.emitPeak()
	return nil
}

func (e *Engine) open() error {
	cfg := &e.cfg
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.fillDefaults()
	meta := cfg.Meta
	if cfg.Scale < 1 {
		meta = meta.Scaled(cfg.Scale)
	}
	var ds *dataset.Dataset
	if cfg.Provided != nil {
		// Injected dataset (streaming replay): the window's materialized
		// rows and graph stand in for generation; Validate already
		// rejected the transforms that would mutate them.
		ds = cfg.Provided
		meta = ds.Meta
	} else {
		var err error
		ds, err = dataset.Generate(meta, cfg.Seed)
		if err != nil {
			return err
		}
		if cfg.MissingFrac > 0 {
			dataset.InjectMissing(ds.Data, cfg.MissingFrac, cfg.Seed^0xd20b)
		}
	}
	e.meta = meta
	e.sys = memsim.NewTracker("system", cfg.SystemMemory)
	e.gpu = memsim.NewTracker("gpu", cfg.GPUMemory)
	sys, gpu := e.sys, e.gpu

	e.report = &Report{
		Strategy:   cfg.Strategy,
		Model:      cfg.Model,
		Dataset:    meta.Name,
		Workers:    cfg.Replicas,
		Accounting: shard.Accounting{GlobalBatch: cfg.BatchSize * cfg.Replicas},
	}

	// Stage 0/1: raw signal, then time-of-day augmentation (Fig. 3 stage 1).
	if err := sys.Alloc("raw", ds.Data.NumBytes()); err != nil {
		return err
	}
	sys.Record(0.01)
	aug := ds.Augmented()
	if meta.TimeOfDay {
		if err := sys.Alloc("data", aug.NumBytes()); err != nil {
			return err
		}
		sys.Free("raw", ds.Data.NumBytes())
	} else {
		// No augmentation: relabel the raw allocation as the data copy.
		sys.Free("raw", ds.Data.NumBytes())
		if err := sys.Alloc("data", aug.NumBytes()); err != nil {
			return err
		}
		aug = aug.Clone() // decouple from the generator's buffer
	}
	sys.Record(0.03)
	e.g = ds.Graph

	fwd, bwd := ds.Graph.TransitionMatrices()
	e.supports = []*sparse.CSR{fwd, bwd}
	e.in = meta.Features()

	// Pipeline resolution per strategy.
	switch cfg.Strategy {
	case Baseline:
		res, err := batching.StandardPreprocess(aug, meta.Horizon, batching.DefaultTrainFrac, sys)
		if err != nil {
			return err
		}
		// The augmented source array is released once the materialized x/y
		// arrays exist (the reference keeps only the preprocessed data).
		sys.FreeAll("data")
		e.report.RetainedDataBytes = res.StandardRetainedBytes()
		sys.Record(0.10)
		e.data = res
	default: // every index-batched strategy
		idx, err := batching.NewIndexDataset(aug, meta.Horizon, batching.DefaultTrainFrac, sys)
		if err != nil {
			return err
		}
		e.idx, e.data = idx, idx
		e.report.RetainedDataBytes = idx.RetainedBytes()
		if cfg.Strategy.IsDistributed() {
			sys.Record(0.08)
			break
		}
		sys.Record(0.10)
		if cfg.Strategy == GPUIndex {
			// One consolidated staging copy: the dataset moves to the device
			// and the host copy is released (§4.1, GPU-index-batching).
			if err := gpu.Alloc("data", idx.Data.NumBytes()); err != nil {
				return err
			}
			e.report.VirtualTime += device.NewGPU("stage", 0).TransferTime(idx.Data.NumBytes())
			sys.FreeAll("data")
			sys.Record(0.12)
		}
	}

	e.split = batching.MakeSplit(e.data.NumSnapshots(), batching.DefaultTrainFrac, batching.DefaultValFrac)
	return nil
}

// Build prepares the process grid the strategy trains on: the partition, the
// model factory, checkpoint injection, memory accounting and the trainer
// configuration. Runs Open first if needed. Idempotent.
func (e *Engine) Build() error {
	if e.stage >= stageBuilt {
		return nil
	}
	if err := e.Open(); err != nil {
		return err
	}
	start := time.Now()
	if err := e.seal(start, e.buildGrid()); err != nil {
		return err
	}
	e.stage = stageBuilt
	e.emitPeak()
	return nil
}

// loadInto loads the configured checkpoint into model, returning the resume
// state when Config.ResumeCheckpoint asked for it (nil otherwise).
func (e *Engine) loadInto(model nn.SeqModel) (*nn.TrainState, error) {
	if path := e.cfg.ResumeCheckpoint; path != "" {
		st, err := nn.LoadTrainStateFile(path, model)
		if err != nil {
			return nil, err
		}
		if st == nil {
			return nil, fmt.Errorf("core: %s is a params-only checkpoint; resuming needs the optimizer trailer (written by SaveCheckpoint)", path)
		}
		return st, nil
	}
	if e.cfg.LoadCheckpoint == "" {
		return nil, nil
	}
	return nil, nn.LoadCheckpointFile(e.cfg.LoadCheckpoint, model)
}

// fullModel builds a freshly-initialized model over the whole graph.
func (e *Engine) fullModel() nn.SeqModel {
	cfg := &e.cfg
	return buildModel(cfg.Model, tensor.NewRNG(cfg.Seed), e.supports, e.in, cfg.Hidden, cfg.K, e.meta.Horizon, e.meta.Nodes)
}

// checkpointInit loads the configured checkpoint (or in-memory WarmParams
// snapshot) once into probe and returns (a) the per-worker injection hook
// replaying the snapshot deterministically on every rank, and (b) the resume
// epoch.
func (e *Engine) checkpointInit(probe nn.SeqModel) (func(nn.SeqModel, *nn.Adam) error, int, error) {
	if len(e.cfg.WarmParams) > 0 {
		snap := e.cfg.WarmParams
		if err := nn.RestoreParams(probe, snap); err != nil {
			return nil, 0, err
		}
		return func(m nn.SeqModel, _ *nn.Adam) error {
			return nn.RestoreParams(m, snap)
		}, 0, nil
	}
	if e.cfg.LoadCheckpoint == "" && e.cfg.ResumeCheckpoint == "" {
		return nil, 0, nil
	}
	state, err := e.loadInto(probe)
	if err != nil {
		return nil, 0, err
	}
	snap := nn.SnapshotParams(probe)
	startEpoch := 0
	if state != nil {
		startEpoch = state.NextEpoch
	}
	init := func(m nn.SeqModel, opt *nn.Adam) error {
		if err := nn.RestoreParams(m, snap); err != nil {
			return err
		}
		if state != nil {
			return opt.RestoreMoments(state.M, state.V, state.Step)
		}
		return nil
	}
	return init, startEpoch, nil
}

// buildGrid prepares the Shards x Replicas process grid every strategy trains
// on — 1x1 for the single-GPU strategies: the partition (one whole-graph part
// unless Config.Shards splits the node set), memory accounting, and the
// trainer configuration.
func (e *Engine) buildGrid() error {
	cfg := &e.cfg
	meta := e.meta
	supports := e.supports
	if cfg.Model == ModelA3TGCN {
		supports = supports[:1] // A3T-GCN diffuses over the forward support only
	}
	if len(cfg.NodeWeights) > 0 && len(cfg.NodeWeights) != e.g.N {
		return invalidf("NodeWeights", "got %d weights for a %d-node graph", len(cfg.NodeWeights), e.g.N)
	}
	var plan *shard.Plan
	var err error
	switch {
	case cfg.Shards == 1:
		plan = shard.WholeGraph(e.g.N)
	case len(cfg.NodeWeights) > 0 && !cfg.StaticPartition:
		// Weighted initial partition: balance modeled compute, not node
		// count, so a degree- or cost-skewed graph starts load-balanced.
		owner, werr := graph.PartitionWeighted(e.g, cfg.Shards, cfg.NodeWeights)
		if werr != nil {
			return werr
		}
		plan, err = shard.ReplanFrom(e.g, supports, cfg.Shards, owner)
	default:
		plan, err = shard.BuildPlan(e.g, supports, cfg.Shards)
	}
	if err != nil {
		return err
	}
	e.report.SpatialShards = cfg.Shards
	e.report.EdgeCut = plan.EdgeCut

	in := meta.Features()
	e.trainSupports = supports
	e.factory = func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return buildModelOn(cfg.Model, tensor.NewRNG(seed), props, in, cfg.Hidden, cfg.K, meta.Horizon, meta.Nodes)
	}
	model := e.factory(cfg.Seed, nn.WrapSupports(supports))
	init, startEpoch, err := e.checkpointInit(model)
	if err != nil {
		return err
	}
	e.startEpoch = startEpoch

	paramBytes := nn.ParameterBytes(model)
	if cfg.Strategy.IsDistributed() {
		err = e.accountWorkers(plan, paramBytes)
	} else {
		err = e.accountDevice(paramBytes)
	}
	if err != nil {
		return err
	}

	e.trainCfg = cfg.Config
	e.trainCfg.Net = cluster.SlingshotModel()
	e.trainCfg.Feed = e.feed()
	e.trainCfg.Plan, e.trainCfg.Init, e.trainCfg.StartEpoch = plan, init, startEpoch
	if cfg.MissingFrac > 0 {
		// The standardized encoding of a raw zero — the missing-data sentinel
		// after z-scoring. Both pipelines standardize with the identical
		// expression, so the comparison is exact.
		mean, std := e.data.Norm()
		mask := (0 - mean) / std
		e.trainCfg.Loss = func(pred *autograd.Variable, target *tensor.Tensor) *autograd.Variable {
			return autograd.MaskedMAELoss(pred, target, mask)
		}
	}
	return nil
}

// feed resolves the strategy's data path: what moving one batch to the device
// costs (see shard.Feed).
func (e *Engine) feed() shard.Feed {
	switch e.cfg.Strategy {
	case Baseline, Index:
		// The dataset stays on the host: every batch pays a pageable H2D
		// copy and occupies the device for its step — the cost GPU-index
		// eliminates.
		h2d := device.NewGPU("train", 0)
		h2d.Mem = e.gpu
		return shard.HostToDevice{Device: h2d}
	case BaselineDDP:
		return shard.RemoteFetch{}
	case GenDistIndex:
		if e.cfg.Replicas > 1 {
			// The larger-than-memory layout: rows partitioned across
			// workers; only boundary rows travel.
			return shard.PartitionedStore{}
		}
	}
	return nil
}

// accountDevice is the single-GPU strategies' accounting (the paper's eq. 1
// and eq. 2 view of one host feeding one device): the parameters live on the
// device, and GPU-index-batching keeps the batch staging buffer there for
// good. The host-resident strategies' per-batch bytes come and go with each
// step (shard.HostToDevice).
func (e *Engine) accountDevice(paramBytes int64) error {
	if err := e.gpu.Alloc("model.params", paramBytes); err != nil {
		return err
	}
	if e.cfg.Strategy != GPUIndex {
		return nil
	}
	batchBytes := 2 * int64(e.cfg.BatchSize) * int64(e.meta.Horizon) * int64(e.meta.Nodes) * int64(e.in) * 8
	return e.gpu.Alloc("batch.buffer", batchBytes)
}

// accountWorkers is the distributed strategies' per-worker accounting on the
// grid. In-process all workers share one address space; the tracker reflects
// what a real deployment holds: replica parameters, the owned slice of batch
// staging, the data share, and the halo staging slab (kept under its own
// label so the overhead stays visible next to the N/P claim). DistIndex keeps
// the full history of its ~N/P node share on every worker; the partitioned
// strategies (never sharded) hold one row share each.
func (e *Engine) accountWorkers(plan *shard.Plan, paramBytes int64) error {
	cfg, meta, sys, gpu := &e.cfg, e.meta, e.sys, e.gpu
	maxOwn, maxHalo := plan.MaxOwn(), plan.MaxHalo()
	batchBytes := 2 * int64(cfg.BatchSize) * int64(meta.Horizon) * int64(maxOwn) * int64(e.in) * 8
	dataShare := e.idx.RetainedBytes() * int64(maxOwn) / int64(meta.Nodes)
	if cfg.Strategy != DistIndex {
		dataShare = e.idx.RetainedBytes() / int64(cfg.Replicas)
	}
	haloSlab := perfmodel.HaloSlabBytes(maxHalo, cfg.BatchSize, e.in, cfg.Hidden)
	// Worker 0's share is the tracked "data" allocation, but under spatial
	// sharding no worker holds the full node axis: release the non-owned
	// portion of the single copy so the tracker reflects the ~N/P footprint
	// the subsystem exists to provide (peers' shares are charged below).
	if full := sys.LabelBytes("data"); full > 0 {
		sys.Free("data", full-full*int64(maxOwn)/int64(meta.Nodes))
	}
	for w := 0; w < plan.Shards*cfg.Replicas; w++ {
		if err := sys.Alloc("worker.replica", paramBytes+batchBytes); err != nil {
			return err
		}
		if err := sys.Alloc("worker.halo", haloSlab); err != nil {
			return err
		}
		if w > 0 { // worker 0's share is the tracked "data" allocation
			if err := sys.Alloc("worker.data", dataShare); err != nil {
				return err
			}
		}
		if err := gpu.Alloc("worker.gpu", paramBytes+batchBytes+haloSlab); err != nil {
			return err
		}
	}
	e.report.PerWorkerBytes = paramBytes + batchBytes + dataShare + haloSlab
	sys.Record(0.10)
	return nil
}

// Fit trains. The context is honored mid-epoch: the grid's workers agree on
// it per step through a clock-free scalar collective (only when the context
// is cancellable). On cancellation Fit returns an error wrapping
// ctx.Err() and the Report holds the completed epochs' curve ("partial
// curve"). Events (epoch end, autotune lock-in, memory high-water, OOM)
// stream through Config.Events. Runs Open and Build first if needed.
func (e *Engine) Fit(ctx context.Context) error {
	if e.stage >= stageFitted || e.fitAttempted {
		// One Fit per engine, even after a cancelled or failed attempt:
		// the model and optimizer are already mutated, so rerunning would
		// silently retrain on dirty state. Build a new engine to retrain.
		return ErrFitted
	}
	if err := e.Build(); err != nil {
		return err
	}
	e.fitAttempted = true
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := e.seal(start, e.fitGrid(ctx)); err != nil {
		return err
	}
	e.stage = stageFitted
	e.emitPeak()
	return nil
}

// saveState writes the resumable checkpoint (parameters + optimizer
// trailer). nextEpoch is the first epoch a resumed run should execute: the
// epoch budget for completed runs, the interrupted epoch for cancelled
// ones. A checkpoint from a completed run resumes bitwise-equal to a
// straight-through run; one from a cancelled run redoes the interrupted
// epoch on state that already absorbed part of it (a warm continuation,
// not a bitwise replay). It is also the single write-on-abnormal-exit path:
// a Fit that ends before its epoch budget — context cancellation or an
// unrecoverable worker loss — persists the last consistent epoch state
// through it, so SaveCheckpoint is honored under the same contract either
// way.
func (e *Engine) saveState(nextEpoch int) error {
	if e.cfg.SaveCheckpoint == "" {
		return nil
	}
	if nextEpoch < e.startEpoch {
		// A resume whose budget was already spent must not rewind the
		// loaded cursor.
		nextEpoch = e.startEpoch
	}
	return nn.SaveTrainStateFile(e.cfg.SaveCheckpoint, e.model, e.opt, nextEpoch)
}

// restoreSnapshot rebuilds a full-graph model and optimizer from an
// epoch-boundary recovery snapshot (parameters are propagator-independent,
// so a sharded capture loads into the full-graph architecture) and installs
// them as the engine's trained state.
func (e *Engine) restoreSnapshot(params [][]float64, st *nn.TrainState) error {
	model := e.fullModel()
	if err := nn.RestoreParams(model, params); err != nil {
		return err
	}
	opt := nn.NewAdam(model, e.cfg.LR)
	if err := opt.RestoreMoments(st.M, st.V, st.Step); err != nil {
		return err
	}
	e.model, e.opt = model, opt
	return nil
}

// snapshotInit returns the per-worker injection hook replaying a recovery
// snapshot deterministically on every rank of a rebuilt grid.
func snapshotInit(params [][]float64, st *nn.TrainState) func(nn.SeqModel, *nn.Adam) error {
	return func(m nn.SeqModel, opt *nn.Adam) error {
		if err := nn.RestoreParams(m, params); err != nil {
			return err
		}
		return opt.RestoreMoments(st.M, st.V, st.Step)
	}
}

// snapshotBytes is a parameter snapshot's wire size (the state the survivors
// re-fill from the snapshot holder on recovery).
func snapshotBytes(params [][]float64) int64 {
	var n int64
	for _, p := range params {
		n += int64(len(p)) * 8
	}
	return n
}

// recovery is one survived worker loss, as the fit loops book it.
type recovery struct {
	lost             *cluster.WorkerLostError
	refill           time.Duration // modeled re-plan + state/feature re-fill charge
	epoch            int           // epoch training resumes at (snapshot's NextEpoch)
	snapVT           time.Duration // snapshot's clock (start of the rolled-back span)
	shards, replicas int           // surviving grid
}

// bookRecovery stitches one survived worker loss into the report: counts it,
// adds the rolled-back progress plus detection and re-fill to RecoveryTime,
// emits the typed RecoveryEvent, and records the fault/recovery spans on
// rank 0's trace timeline. Both are async spans: pipelined step tails of the
// aborted attempt legitimately run past the agreed detection point, so the
// detection window may overlap them. Returns the clock offset the next
// attempt's virtual times are stitched onto, after rebasing the recorder so
// the attempt's locally-zeroed span clocks land there too.
func (e *Engine) bookRecovery(offset time.Duration, r recovery) time.Duration {
	detected := offset + r.lost.Detected
	e.report.Recoveries++
	e.report.RecoveryTime += r.lost.Detected - r.snapVT + r.refill
	e.emit(RecoveryEvent{
		Rank: r.lost.Rank, Epoch: r.epoch,
		Workers: r.shards * r.replicas, Shards: r.shards, Replicas: r.replicas,
		Detected: detected, Cost: r.refill,
	})
	if tw := e.cfg.Trace.Worker(0); tw != nil {
		// Attempt-local times: the worker's base (this attempt's offset)
		// translates them onto the absolute timeline.
		d := e.cfg.Faults.Detection
		tw.AsyncSpan(trace.KindFault, fmt.Sprintf("worker %d lost", r.lost.Rank), trace.StreamStep, r.lost.Detected-d, d, 0)
		tw.AsyncSpan(trace.KindRecovery, fmt.Sprintf("recover %dx%d", r.shards, r.replicas), trace.StreamStep, r.lost.Detected, r.refill, 0)
	}
	e.cfg.Trace.Rebase(detected + r.refill)
	return detected + r.refill
}

// fitGrid drives every strategy through the grid trainer: Shards node
// blocks (one when unsharded) times Replicas data replicas — one block,
// one replica for the single-GPU strategies. Under spatial sharding each
// worker's tracked footprint is only its ~N/P share of the node features plus
// a transient halo slab, the memory axis sharding exists to shrink. With a
// fault plan armed it is also the
// recovery loop: each detected worker loss rolls back to the last
// epoch-boundary snapshot, rebuilds the grid from the survivors, charges
// detection + re-fill on the stitched clock, and re-runs the trainer from the
// snapshot — so the post-recovery curve is bitwise identical to a fresh run
// started from that snapshot on the surviving grid.
func (e *Engine) fitGrid(ctx context.Context) error {
	report := e.report
	cfg := e.trainCfg
	cfg.Ctx = ctx
	if e.cfg.Events != nil {
		cfg.OnEpoch = func(rec metrics.EpochRecord) {
			e.emit(EpochEvent{Epoch: rec.Epoch, TrainMAE: rec.TrainMAE, ValMAE: rec.ValMAE})
		}
		cfg.OnAutotuneLock = func(bucketBytes int64) {
			e.emit(AutotuneEvent{BucketBytes: bucketBytes})
		}
		cfg.OnRepartition = func(ev shard.RepartitionEvent) {
			e.emit(RepartitionEvent{
				Epoch: ev.Epoch, From: ev.From, To: ev.To,
				Nodes: len(ev.Nodes), EdgeCut: ev.EdgeCut,
			})
		}
	}
	var prefix metrics.Curve
	offset := report.VirtualTime // GPU-index's staging copy precedes the first step
	for {
		var snap *shard.Snapshot
		if cfg.Faults != nil {
			cfg.OnSnapshot = func(s shard.Snapshot) { snap = &s }
		}
		res, err := shard.Train(e.data, e.split, e.g, e.trainSupports, e.factory, cfg)
		if err != nil {
			var lost *cluster.WorkerLostError
			if !errors.As(err, &lost) || snap == nil {
				return err
			}
			sv := shard.SurvivingGrid(cfg.Shards, cfg.Replicas, lost.Rank, snap.Owner)
			refill := cfg.Net.FetchTime(snapshotBytes(snap.Params))
			if sv.Shards < cfg.Shards {
				// The lost shard's nodes re-split across the survivors; the
				// row blocks and halo routing rebuild via ReplanFrom, and
				// the moved nodes' feature history re-fills over the fabric.
				hist := int64(e.idx.Data.Dim(0)) * int64(e.idx.Data.Dim(2)) * 8
				refill += cfg.Net.FetchTime(int64(sv.Moved) * hist)
			}
			world := sv.Shards * sv.Replicas
			next := cfg.Faults.Remap(sv.Ranks).Shift(lost.Detected + refill)
			if world < 1 || next.Validate(world) != nil {
				// Unrecoverable: the remaining schedule leaves no survivor;
				// persist the last consistent epoch state through the shared
				// abnormal-exit path and surface the typed loss.
				if rerr := e.restoreSnapshot(snap.Params, snap.State); rerr != nil {
					return rerr
				}
				if serr := e.saveState(snap.NextEpoch); serr != nil {
					return serr
				}
				return fmt.Errorf("core: fit unrecoverable in epoch %d: %w", snap.NextEpoch, lost)
			}
			plan, perr := shard.ReplanFrom(e.g, e.trainSupports, sv.Shards, sv.Owner)
			if perr != nil {
				return perr
			}
			prefix = append(prefix, snap.Curve...)
			offset = e.bookRecovery(offset, recovery{
				lost: lost, refill: refill, epoch: snap.NextEpoch,
				snapVT: snap.VirtualTime, shards: sv.Shards, replicas: sv.Replicas,
			})
			// A PartitionedStore re-splits its rows over the surviving
			// replicas inside Train (the dead worker's partition re-fills
			// from its peers; the clock charge is covered by refill).
			cfg.Shards, cfg.Replicas = sv.Shards, sv.Replicas
			cfg.Plan = plan
			cfg.StartEpoch = snap.NextEpoch
			cfg.Init = snapshotInit(snap.Params, snap.State)
			cfg.Faults = next
			continue
		}
		e.sys.Record(1.0)
		report.Workers = cfg.Shards * cfg.Replicas
		report.Accounting = res.Accounting
		report.Curve = append(prefix, res.Curve...)
		report.VirtualTime += offset

		// The trained parameters are identical on every worker and independent
		// of the propagators, so they load straight into a full-graph model —
		// the servable artifact checkpoints and the Predictor hold.
		full := e.fullModel()
		if err := nn.RestoreParams(full, nn.SnapshotParams(res.Model)); err != nil {
			return err
		}
		e.model = full
		e.opt = res.Opt
		if res.Cancelled {
			if err := e.saveState(cfg.StartEpoch + len(res.Curve)); err != nil {
				return err
			}
			return fmt.Errorf("core: fit cancelled after %d epochs: %w", len(prefix)+len(res.Curve), ctx.Err())
		}
		return e.saveState(e.cfg.Epochs)
	}
}

// Eval computes post-training test metrics: the test-split MSE and, when
// Config.EmitForecasts > 0, per-window predictions in original units.
// Single-GPU runs always evaluate (legacy behavior); distributed runs
// evaluate on rank 0's replica when Config.EvalTest or EmitForecasts asks
// for it. Requires a completed Fit.
func (e *Engine) Eval() error {
	if e.stage < stageFitted {
		return fmt.Errorf("core: eval before fit: %w", ErrNotFitted)
	}
	if e.cfg.Strategy.IsDistributed() && !e.cfg.EvalTest && e.cfg.EmitForecasts <= 0 {
		return nil
	}
	start := time.Now()
	e.report.TestMSE = evaluateTestMSE(e.model, e.data, e.split.Test, e.cfg.BatchSize)
	if e.cfg.EmitForecasts > 0 {
		e.report.Forecasts = emitForecasts(e.model, e.data, e.split.Test, e.cfg.EmitForecasts, e.meta.Nodes)
	}
	return e.seal(start, nil)
}

// runAll composes the stages exactly as the legacy Run did, converting an
// OOM anywhere into a reported outcome rather than an error.
func (e *Engine) runAll(ctx context.Context) (*Report, error) {
	err := e.Fit(ctx) // auto-runs Open and Build
	if err == nil {
		err = e.Eval()
	}
	if err != nil {
		var oom *memsim.OOMError
		if errors.As(err, &oom) {
			return e.report, nil
		}
		return nil, err
	}
	return e.report, nil
}
