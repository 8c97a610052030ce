package shard

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/device"
	"pgti/internal/fault"
	"pgti/internal/graph"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// ModelFactory builds one model replica over a shard's propagators. It is
// called once per worker with the shared seed and the worker's shard-local
// propagators; parameter initialization must not depend on the propagators
// (the nn constructors guarantee this), so every worker starts identical.
type ModelFactory func(seed uint64, props []nn.Propagator) nn.SeqModel

// HaloSyncMode selects the halo-exchange schedule.
type HaloSyncMode int

// The two halo schedules.
const (
	// HaloSyncOverlap (default) is the interior-first split-phase schedule:
	// each ShardSpMM launches its halo exchange, multiplies the rows whose
	// columns all fall in [own] while the bytes are in flight, and finishes
	// the frontier rows once the halo lands (mirrored in backward under the
	// reverse scatter-add exchange). The step's virtual clock charges
	// max(compute, pipelined comm) via cluster.OverlapFinish; results are
	// bitwise identical to the blocking schedule.
	HaloSyncOverlap HaloSyncMode = iota
	// HaloSyncBlocking is the gather-then-multiply baseline: every exchange
	// blocks before the local SpMM and its full modeled cost is exposed on
	// the clock. Kept for ablation benchmarks.
	HaloSyncBlocking
)

// String implements fmt.Stringer.
func (m HaloSyncMode) String() string {
	if m == HaloSyncBlocking {
		return "blocking"
	}
	return "overlap"
}

// Feed is how a worker's batches reach its device and what each one costs on
// the virtual clock. At most one transfer may be configured; it is charged
// inline, fully exposed, ahead of the step. The zero value assembles locally
// for free.
type Feed struct {
	// Remote models the baseline-DDP data path: every batch is fetched on
	// demand through the data service, over the fabric. Needs Shards == 1.
	Remote bool
	// Store, when set, partitions the data rows across the replicas
	// (generalized-distributed-index-batching, §5.4): batches are assembled
	// through the store and only rows outside the replica's partition are
	// charged as remote traffic. Needs Shards == 1.
	Store *batching.PartitionStore
	// Device, when set, models a host-resident dataset: every locally
	// assembled batch takes a pageable host-to-device copy priced by the
	// device's transfer model, and its bytes sit on the device's tracker
	// (label "batch.transient") for the length of the step — the per-batch
	// cost GPU-index-batching eliminates (§4.1).
	Device *device.Device
}

// Config parameterizes a training run on a Shards x Replicas process grid.
// Either axis degenerates at 1: a 1 x R grid is plain data-parallel training
// (no halo traffic, the world ring or hierarchical AllReduce), an S x 1 grid
// is pure spatial sharding, and 1 x 1 is a single worker. Rank layout: rank =
// replica*Shards + shard, so each replica group is a contiguous rank block
// (halo neighbours land on the same simulated node under a matching
// Topology) and each shard group is a stride-Shards comb.
type Config struct {
	Shards   int
	Replicas int
	// BatchSize is per replica; the global batch is BatchSize * Replicas
	// (shards within a replica cooperate on the same batch).
	BatchSize int
	Epochs    int
	LR        float64
	// UseLRScaling applies the linear scaling rule lr*Replicas (shards do
	// not grow the global batch).
	UseLRScaling bool
	// ClipNorm, when > 0, clips the globally-synchronized gradient norm
	// before the optimizer step (all workers hold the identical gradient at
	// that point, so the clip is exact).
	ClipNorm float64
	Sampler  ddp.SamplerKind
	Seed     uint64
	Net      cluster.NetworkModel
	// Topology lays the grid onto simulated nodes: halo messages and group
	// collectives between ranks on one node ride the NVLink-class intra
	// link, and ddp.GradAlgoHierarchical reduces per node first.
	Topology cluster.Topology
	// Feed selects the data path's per-batch transfer (see Feed).
	Feed Feed
	// Loss is the training objective, also reported as the validation metric
	// (default autograd.MAELoss). A sharded grid sums the shard losses by node
	// share, which is exact only for a plain mean over elements.
	Loss func(pred *autograd.Variable, target *tensor.Tensor) *autograd.Variable
	// ComputeCost, when set, supplies the modeled full-graph per-batch
	// compute time; each shard is charged its owned-node share. When nil,
	// real elapsed time is charged.
	ComputeCost func(batchItems int) time.Duration
	// Prefetch pipelines batch assembly against the training step: a
	// double-buffered background collator assembles batch T+1 while batch T
	// runs forward/backward (exactly one batch deep). Batch contents are
	// bitwise identical to the serial path, so training curves do not
	// change; with the windows resident at step start, the first forward
	// halo exchange also launches immediately instead of at its measured
	// compute offset. Ignored when Feed.Store supplies the data (its fetches
	// are the pipeline's bottleneck, not local collation).
	Prefetch bool
	// AssembleCost, when set, supplies the modeled host-side collation time
	// of one batch. Serial runs expose it ahead of every step; under
	// Prefetch the next batch's assembly runs under the current step and
	// only the epoch's leading assembly is exposed. Ignored with Feed.Store.
	AssembleCost func(batchItems int) time.Duration
	// Staleness bounds the gradient pipeline depth: when K > 0 (bucketed
	// sync only), the collective still launches every step, but the
	// optimizer applies each synchronized gradient up to K steps late with
	// the staleness-compensated extrapolation g + K*(g - g_prev), so the
	// sync cost hides under the following K steps' compute instead of the
	// step's own tail. The queue drains at epoch end (and on cancellation),
	// so every gradient is applied exactly once and replicas stay bitwise
	// identical; zero keeps the synchronous schedule.
	Staleness int
	// Plan, when set, supplies a prebuilt partition (callers that need the
	// shard sizes up front, e.g. for memory accounting, build it once and
	// pass it in). When nil, Train builds it from the graph.
	Plan *Plan
	// Repartition enables elastic chunk-based repartitioning: at each epoch
	// boundary the grid agrees on a per-shard load vector (accumulated step
	// compute) and, past the threshold, migrates a chunk of nodes from the
	// heaviest shard to the lightest, rebuilding row blocks and halo routing
	// in place (see Repartition). Zero value keeps the partition static.
	Repartition Repartition
	// NodeWeights, when set with ComputeCost, scales each shard's structural
	// compute charge by its owned share of the total node weight instead of
	// its node-count share — the skew-injection hook the repartition tests
	// and benchmarks use (len must equal the graph's node count). Loss
	// weighting keeps the node-count share, so training results are
	// unchanged.
	NodeWeights []float64
	// OnRepartition fires on rank 0 after each applied chunk migration.
	OnRepartition func(ev RepartitionEvent)

	// Algo selects the gradient exchange. ddp.GradAlgoRing (default)
	// partitions the gradients into size-capped buckets and launches each
	// bucket's collective from the timed gradient-ready hooks mid-backward,
	// folding the modeled cost into the step's overlap timeline; the grid
	// shape picks the collective — the world ring at Shards == 1, the
	// two-stage replica-group sum then shard-group mean otherwise.
	// ddp.GradAlgoHierarchical is the same schedule over the node-aware
	// world AllReduce (Shards == 1 only; the two-stage collective is already
	// topology-priced). ddp.GradAlgoFlat is the blocking baseline: one
	// flattened exchange after backward, fully exposed.
	Algo ddp.GradAlgo
	// HaloSync selects the halo-exchange schedule (default interior-first
	// overlap; see HaloSyncMode).
	HaloSync HaloSyncMode
	// FP16 ships gradient buckets quantized to half precision with
	// error-feedback residual accumulation: 2 wire bytes per element instead
	// of fp64's 8.
	FP16 bool
	// BucketBytes caps one gradient bucket for the bucketed schedule
	// (default ddp.DefaultBucketBytes).
	BucketBytes int64
	// AutoTuneBuckets sweeps candidate bucket sizes across the first
	// epoch's steps and locks in the one minimizing the modeled step time
	// (ddp.AutotuneCandidates ladder). Ignored by ddp.GradAlgoFlat.
	AutoTuneBuckets bool
	// OnAutotuneLock fires on rank 0 when the bucket autotuner locks in its
	// winning bucket size.
	OnAutotuneLock func(bucketBytes int64)
	// Trace, when set, records every worker's spans and counters (see
	// internal/trace). Recording never touches virtual clocks or
	// collectives, so a traced run is bitwise identical to an untraced one.
	Trace *trace.Recorder

	// Ctx, when cancellable (Ctx.Done() != nil), is polled once per step
	// through an agreed scalar collective so every worker of the grid stops
	// at the same step: training returns cleanly mid-epoch with
	// Result.Cancelled set and the curve of completed epochs. A nil or
	// non-cancellable context (e.g. context.Background) adds no per-step
	// collective, keeping the plain path's virtual timeline untouched.
	Ctx context.Context
	// StartEpoch is the absolute index of the first epoch to run (resume);
	// the loop covers epochs [StartEpoch, Epochs).
	StartEpoch int
	// Init, when set, runs on every worker after its replica and optimizer
	// are built — the deterministic checkpoint-injection hook. It must apply
	// identical state on every rank.
	Init func(model nn.SeqModel, opt *nn.Adam) error
	// OnEpoch streams each completed epoch's record from rank 0.
	OnEpoch func(rec metrics.EpochRecord)
	// Faults, when set, arms the grid with a deterministic fault plan (see
	// internal/fault): scheduled crashes abort the run with a typed
	// *cluster.WorkerLostError once the survivors agree on the loss,
	// straggler windows inflate the affected rank's step compute, and
	// link-degrade windows inflate every modeled transfer. An armed but
	// empty plan is bitwise identical to nil.
	Faults *fault.Plan
	// OnSnapshot, when set, streams a consistent epoch-boundary capture of
	// rank 0's replica (parameters, optimizer state, curve, owner vector,
	// clock) — the recovery anchor a fault-armed caller rolls back to. An
	// initial capture fires before the first epoch.
	OnSnapshot func(snap Snapshot)
}

// Snapshot is a consistent epoch-boundary capture of a hybrid run: enough
// state to restart training at NextEpoch on any grid and reproduce the
// continuation bitwise (parameters and optimizer moments are identical on
// every worker at epoch boundaries, so rank 0's copy is the global state).
type Snapshot struct {
	// NextEpoch is the absolute index of the first epoch a restart from this
	// snapshot runs.
	NextEpoch int
	// Params is a deep copy of the model parameters.
	Params [][]float64
	// State carries the optimizer moments and step count.
	State *nn.TrainState
	// Curve is the epoch records completed so far.
	Curve metrics.Curve
	// Owner is the node->shard assignment in force at the capture point
	// (elastic chunk migrations may have moved it off the initial plan).
	Owner []int
	// VirtualTime is worker 0's synchronized clock at the capture point.
	VirtualTime time.Duration
}

// Result summarizes a grid run.
type Result struct {
	Curve metrics.Curve
	// VirtualTime is worker 0's synchronized virtual clock at completion.
	VirtualTime time.Duration
	// CommTime is the *exposed* modeled communication (gradient
	// synchronization plus remote data fetches) from worker 0's perspective
	// — bucketed-overlap cost hidden under compute does not appear here;
	// halo traffic is reported separately.
	CommTime time.Duration
	// CommHiddenTime is the modeled gradient-sync cost the bucketed overlap
	// hid under step compute (zero for ddp.GradAlgoFlat).
	CommHiddenTime time.Duration
	// HaloTime / HaloBytes are worker 0's modeled halo-exchange cost and
	// wire traffic across forward and backward passes; HaloHiddenTime is
	// the portion of HaloTime the interior-first overlap hid under compute
	// (zero for HaloSyncBlocking).
	HaloTime       time.Duration
	HaloHiddenTime time.Duration
	HaloBytes      int64
	// CommExposedIntra / CommExposedInter split worker 0's exposed
	// communication by modeled channel: each is the time that channel's
	// traffic (halo or gradient) extended past compute or was charged
	// inline. The two tails run concurrently, so their sum can exceed the
	// total exposed time (which is the per-step max, not the sum).
	CommExposedIntra time.Duration
	CommExposedInter time.Duration
	// GradSyncBytes is worker 0's gradient wire traffic (per bucketed
	// collective: the bucket's wire size, compressed under FP16; per
	// flatten collective: the full vector's wire size).
	GradSyncBytes int64
	// CommBytesSaved is the gradient traffic avoided by fp16 compression.
	CommBytesSaved int64
	// GradBuckets is the per-step gradient bucket count (1 for
	// ddp.GradAlgoFlat); BucketBytes is the effective bucket cap (the
	// autotuned winner when AutoTuneBuckets is set, 0 for ddp.GradAlgoFlat).
	GradBuckets int
	BucketBytes int64
	Steps       int
	GlobalBatch int
	Shards      int
	Replicas    int
	// EdgeCut, MaxOwn and MaxHalo describe the initial partition
	// (halo-traffic and memory-balance proxies; MaxOwn ~ ceil(N/Shards)).
	EdgeCut, MaxOwn, MaxHalo int
	// Repartitions counts the elastic chunk migrations applied during the
	// run (0 when Config.Repartition is disabled or never triggered).
	Repartitions int
	// ShardLoads is the final per-shard structural compute share
	// (NodeWeights-weighted when weights are set, node-count otherwise,
	// summing to 1; nil at Shards == 1). The spread max/min over it is the
	// load-balance figure the gated repartition bench reports: elastic
	// migration must leave it tighter than the loads it started from.
	ShardLoads []float64
	// Model and Opt are rank 0's trained replica (over shard 0's
	// propagators) and optimizer. Parameters are identical on every worker
	// and propagator-independent, so they load into a full-graph model of
	// the same architecture.
	Model nn.SeqModel
	Opt   *nn.Adam
	// Cancelled reports that Config.Ctx was cancelled and the grid stopped
	// at an agreed step.
	Cancelled bool
}

// Train runs the grid trainer, the repo's one step loop (a single GPU is the
// 1x1 grid; Feed, Loss and the batching.Source carry what tells the
// strategies apart): the
// graph is partitioned into cfg.Shards node blocks, each of cfg.Replicas data
// replicas is spread over one replica group of shard workers, halo rows
// travel within replica groups during forward/backward, and gradients are
// summed across each replica group then averaged across shard groups. At
// Shards == 1 the spatial stages vanish — one part owns every node, the
// model propagates over the full CSR supports, and the gradient collective is
// the world ring (or hierarchical) AllReduce: plain DDP. A sharded run
// matches the unsharded one within floating-point reassociation.
//
// By default both communication legs overlap with compute: halo exchanges
// run interior-first (HaloSyncOverlap) and gradient buckets launch
// mid-backward (ddp.GradAlgoRing); the virtual clock charges each step
// max(compute, pipelined comm) with every launch serialized on its modeled
// communication channel. The blocking schedules remain selectable for
// ablation and are bitwise-equivalent in training results where the
// collective chunking coincides (the halo schedules always are).
func Train(data batching.Source, split batching.Split, g *graph.Graph, supports []*sparse.CSR, factory ModelFactory, cfg Config) (*Result, error) {
	if cfg.Shards < 1 || cfg.Replicas < 1 {
		return nil, fmt.Errorf("shard: need >= 1 shard and replica, got %dx%d", cfg.Shards, cfg.Replicas)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("shard: need batch size >= 1, got %d", cfg.BatchSize)
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("shard: need >= 1 epoch, got %d", cfg.Epochs)
	}
	if cfg.Staleness < 0 {
		return nil, fmt.Errorf("shard: staleness bound must be >= 0, got %d", cfg.Staleness)
	}
	if len(split.Train) < cfg.Replicas {
		return nil, fmt.Errorf("shard: %d training snapshots cannot feed %d replicas", len(split.Train), cfg.Replicas)
	}
	entries, horizon, nodes, features := data.Dims()
	if nodes != g.N {
		return nil, fmt.Errorf("shard: data has %d nodes, graph %d", nodes, g.N)
	}
	feed := cfg.Feed
	if (feed.Store != nil && feed.Remote) || (feed.Device != nil && (feed.Store != nil || feed.Remote)) {
		return nil, fmt.Errorf("shard: Feed's Remote, Store and Device are mutually exclusive data paths")
	}
	if feed.Store != nil && feed.Store.Workers() != cfg.Replicas {
		return nil, fmt.Errorf("shard: store partitioned for %d workers, run has %d replicas", feed.Store.Workers(), cfg.Replicas)
	}
	sharded := cfg.Shards > 1
	if sharded && (feed.Store != nil || feed.Remote || cfg.Algo == ddp.GradAlgoHierarchical) {
		return nil, fmt.Errorf("shard: Store, Remote and the hierarchical AllReduce need Shards == 1, got %d", cfg.Shards)
	}
	lossFn := cfg.Loss
	if lossFn == nil {
		lossFn = autograd.MAELoss
	}
	_, std := data.Norm()
	if err := cfg.Repartition.Validate(); err != nil {
		return nil, err
	}
	if cfg.NodeWeights != nil && len(cfg.NodeWeights) != g.N {
		return nil, fmt.Errorf("shard: %d node weights for %d nodes", len(cfg.NodeWeights), g.N)
	}
	plan := cfg.Plan
	switch {
	case plan != nil:
		if plan.Shards != cfg.Shards || plan.GlobalN != g.N {
			return nil, fmt.Errorf("shard: plan is %d shards over %d nodes, config wants %d over %d", plan.Shards, plan.GlobalN, cfg.Shards, g.N)
		}
	case sharded:
		var err error
		if plan, err = BuildPlan(g, supports, cfg.Shards); err != nil {
			return nil, err
		}
	default:
		plan = WholeGraph(g.N)
	}
	world := cfg.Shards * cfg.Replicas
	if err := cfg.Faults.Validate(world); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	clu, err := cluster.New(cluster.Config{Workers: world, Net: cfg.Net, Faults: cfg.Faults})
	if err != nil {
		return nil, err
	}
	lr := cfg.LR
	if lr <= 0 {
		lr = 0.01
	}
	if cfg.UseLRScaling {
		lr = nn.ScaleLR(lr, cfg.Replicas)
	}

	type workerOut struct {
		curve        metrics.Curve
		vt           time.Duration
		comm         time.Duration
		commHidden   time.Duration
		halo         Stats
		expCh        [cluster.NumChannels]time.Duration
		gradBytes    int64
		savedBytes   int64
		buckets      int
		bucketBytes  int64
		steps        int
		repartitions int
		loads        []float64
		checksum     float64
		cancelled    bool
		model        nn.SeqModel
		opt          *nn.Adam
	}
	outs := make([]workerOut, world)
	globalN := g.N
	cancellable := cfg.Ctx != nil && cfg.Ctx.Done() != nil
	haloOverlap := cfg.HaloSync == HaloSyncOverlap
	// Bucketed overlap only pays off with real peers; a single worker has
	// nothing to exchange and keeps the plain path.
	bucketed := cfg.Algo != ddp.GradAlgoFlat && world > 1
	prefetch := cfg.Prefetch && feed.Store == nil
	net := clu.Net()

	runErr := clu.Run(func(w *cluster.Worker) error {
		rank := w.Rank()
		rep, sh := rank/cfg.Shards, rank%cfg.Shards
		replicaGroup := make([]int, cfg.Shards)
		for i := range replicaGroup {
			replicaGroup[i] = rep*cfg.Shards + i
		}
		shardGroup := make([]int, cfg.Replicas)
		for i := range shardGroup {
			shardGroup[i] = i*cfg.Shards + sh
		}
		// The plan is worker-local state once repartitioning can replace it
		// mid-run; the shared outer plan is never mutated.
		myPlan := plan
		sp := myPlan.Parts[sh]
		// fracOf splits the shard's two shares: the loss weight is always the
		// node-count share (Σ shard losses must equal the global mean
		// exactly), while the structural compute charge uses the NodeWeights
		// share when skew is injected.
		var totalWeight float64
		for _, nw := range cfg.NodeWeights {
			totalWeight += nw
		}
		fracOf := func(own []int) (lossFrac, computeFrac float64) {
			lossFrac = float64(len(own)) / float64(globalN)
			computeFrac = lossFrac
			if cfg.NodeWeights != nil && totalWeight > 0 {
				s := 0.0
				for _, u := range own {
					s += cfg.NodeWeights[u]
				}
				computeFrac = s / totalWeight
			}
			return lossFrac, computeFrac
		}
		ownFrac, computeFrac := fracOf(sp.Own)
		tw := cfg.Trace.Worker(rank)
		cfg.Trace.NameWorker(rank, fmt.Sprintf("train rank %d (replica %d, shard %d)", rank, rep, sh))
		stats := &Stats{PinFirstLaunch: cfg.Prefetch, Trace: tw}
		// A part that owns the whole graph has no halo to route: it
		// propagates over the full supports, batches feed the model without
		// the owned-node gather, and metrics weigh samples alone. A shard
		// weighs each sample by the nodes it saw of it, so unequal shards
		// average correctly (on the whole graph the node count would cancel,
		// though not bitwise).
		props := nn.WrapSupports(supports)
		own := func(t *tensor.Tensor) *tensor.Tensor { return t }
		weight := func(items int) int { return items }
		if sharded {
			props = Propagators(w, replicaGroup, sp, cfg.Topology, stats, haloOverlap)
			own = func(t *tensor.Tensor) *tensor.Tensor { return gatherNodeAxis(t, sp.Own) }
			weight = func(items int) int { return items * len(sp.Own) }
		}
		model := factory(cfg.Seed, props)
		params := model.Parameters()
		opt := nn.NewAdam(model, lr)
		if cfg.Init != nil {
			if err := cfg.Init(model, opt); err != nil {
				return fmt.Errorf("shard: rank %d init: %w", rank, err)
			}
		}
		// Epoch-boundary snapshot stream (rank 0 only): parameters and
		// optimizer moments are identical on every worker at the boundary, so
		// rank 0's copy plus the current owner vector is the full recovery
		// anchor. The initial capture below anchors a crash inside the first
		// epoch.
		capture := func(nextEpoch int, curve metrics.Curve) {
			if rank != 0 || cfg.OnSnapshot == nil {
				return
			}
			cfg.OnSnapshot(Snapshot{
				NextEpoch:   nextEpoch,
				Params:      nn.SnapshotParams(model),
				State:       nn.CaptureTrainState(opt, nextEpoch),
				Curve:       append(metrics.Curve(nil), curve...),
				Owner:       append([]int(nil), myPlan.Owner...),
				VirtualTime: w.VirtualTime(),
			})
		}
		capture(cfg.StartEpoch, nil)
		sampler := ddp.NewSampler(cfg.Sampler, split.Train, cfg.BatchSize, cfg.Replicas, rep, cfg.Seed)
		// This replica's validation batches, fixed for the whole run (the
		// split never changes; only the owned-node slice evaluated per batch
		// does, and that is read from sp at eval time).
		evalLo, evalHi := batching.PartitionRange(len(split.Val), cfg.Replicas, rep)
		evalBatches := batching.Batches(split.Val[evalLo:evalHi], cfg.BatchSize)
		// The train loop's batches live in the prefetcher's double buffer (or
		// buf on the serial path); evaluation gets its own buffer so eval
		// assembly never clobbers a slot the train pipeline still owns.
		var buf, evalBuf batching.BatchBuffer
		var gradBuf []float64
		var flatCodec cluster.FP16Codec
		var comm, commHidden time.Duration
		var gradBytes, savedBytes int64
		var curve metrics.Curve
		steps := 0
		moves := 0

		// The overlap-timeline channels this rank's collectives occupy: halo
		// exchanges stay within the replica group, gradient buckets cross the
		// shard group. Under a flat topology both map to the single fabric
		// channel and the step charge degenerates to the legacy serialized
		// timeline.
		haloCh := cfg.Topology.GroupChannel(world, replicaGroup)
		stats.Channel = haloCh
		// The gradient collective follows from the grid shape: a whole-graph
		// grid reduces over the world ring (or its node-aware hierarchical
		// form), both priced on the fabric; a sharded grid sums across the
		// replica group (reduce-scatter), means across the shard group (chunk
		// allreduce) and allgathers back.
		gradCh := cluster.ChannelInter
		collective := w.AsyncRingAllReduceMeanSized
		switch {
		case sharded:
			gradCh = cfg.Topology.GroupChannel(world, shardGroup)
			collective = func(vec []float64, wireBytes int64) time.Duration {
				return w.AsyncTwoStageAllReduce(vec, replicaGroup, shardGroup, wireBytes, cfg.Topology)
			}
		case cfg.Algo == ddp.GradAlgoHierarchical:
			collective = func(vec []float64, wireBytes int64) time.Duration {
				return w.AsyncHierarchicalAllReduceMeanSized(vec, cfg.Topology, wireBytes)
			}
		}
		// Per-channel exposed communication (the Result split and the
		// comm.exposed.{intra,inter} counters).
		var expCh [cluster.NumChannels]time.Duration

		// One prefetcher per epoch; closed on every exit path (the deferred
		// close covers error returns and cancellation). The eval prefetcher
		// spins up under the epoch's last train step so the first validation
		// batch is resident when the tail eval pass begins.
		// Byte volume of one snapshot's x and y windows.
		pairBytes := int64(2*horizon) * int64(nodes) * int64(features) * 8
		var pf, evalPf *batching.Prefetcher
		defer func() {
			if pf != nil {
				pf.Close()
			}
			if evalPf != nil {
				evalPf.Close()
			}
		}()

		// The bucketed syncer launches the collective per bucket. The wall
		// time spent blocked inside it is booked against the step so the halo
		// launch offsets measure compute only (the syncer's own CommWall
		// symmetrically keeps bucket offsets clean of halo blocking below).
		launch := func(vec []float64, wireBytes int64) time.Duration {
			t0 := time.Now()
			cost := collective(vec, wireBytes)
			stats.stepBlocked += time.Since(t0)
			return cost
		}
		var bucketBytes int64
		var syncer *ddp.OverlapSyncer
		var sweep *ddp.BucketSweep
		if bucketed {
			sweep, syncer, bucketBytes = ddp.NewGradSync(w, net, params, launch, cfg.FP16, cfg.AutoTuneBuckets, cfg.BucketBytes, cfg.OnAutotuneLock)
		}

		// Bounded-staleness pipeline state (see Config.Staleness): each step's
		// synchronized gradient is queued with the absolute virtual time its
		// collectives finish on the persistent gradient engine; the optimizer
		// applies the queue head once it is K steps old. All ranks hold
		// bitwise-identical queues (the exchange itself is synchronous — only
		// the application is deferred), preserving the replica invariant.
		K := cfg.Staleness
		stale := K > 0 && bucketed
		type pendingGrad struct {
			vec    []float64
			finish time.Duration
		}
		var staleQ []pendingGrad
		var freeVecs [][]float64
		var lastApplied, staleComp []float64
		var gradChanFree time.Duration
		applyStale := func(g []float64) {
			comp := g
			if lastApplied != nil {
				// Staleness compensation: extrapolate the delayed gradient K
				// steps forward along its last observed change, first-order
				// correcting for the weights having moved since it was
				// computed. The first application has no history and applies
				// the gradient as-is.
				if cap(staleComp) < len(g) {
					staleComp = make([]float64, len(g))
				}
				staleComp = staleComp[:len(g)]
				kf := float64(K)
				for i := range g {
					staleComp[i] = g[i] + kf*(g[i]-lastApplied[i])
				}
				comp = staleComp
			}
			ddp.UnflattenGrads(params, comp)
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(model, cfg.ClipNorm)
			}
			opt.Step()
			if lastApplied != nil {
				freeVecs = append(freeVecs, lastApplied)
			}
			lastApplied = g
		}

		cancelled := false
		for epoch := cfg.StartEpoch; epoch < cfg.Epochs; epoch++ {
			batches := sampler.EpochBatches(epoch)
			stepsThisEpoch := int(w.AllReduceScalar(float64(len(batches)), cluster.OpMin))
			if prefetch {
				pf = batching.NewPrefetcher(data, batches[:stepsThisEpoch])
			}
			var trainAcc metrics.Running
			// epochCompute is the structural per-step charge (blind to
			// straggler scaling); epochMeasured is the scaled charge the clock
			// actually advanced by — the same quantity the trace compute spans
			// record. Repartition.Measured selects which one feeds the
			// epoch-boundary load vector.
			var epochCompute, epochMeasured time.Duration
			for s := 0; s < stepsThisEpoch; s++ {
				if cancellable {
					// Agree on cancellation before the step starts: every
					// worker stops at the same step, so no collective is
					// left half-issued. The poll is clock-free, so a
					// cancellable run keeps a plain run's modeled timeline.
					flag := 0.0
					if cfg.Ctx.Err() != nil {
						flag = 1
					}
					if w.AllReduceScalarFree(flag, cluster.OpMax) > 0 {
						cancelled = true
						break
					}
				}
				// Crash detection rides the same agreed step boundary: every
				// rank returns the same typed error.
				if err := w.FaultPoll(); err != nil {
					return err
				}
				idx := batches[s]
				var x, y *tensor.Tensor
				// The feed's per-batch transfer charges inline, fully exposed,
				// ahead of the step: remote rows over the fabric, or the whole
				// batch over the host-device link.
				var fetchBytes int64
				var fetchCost time.Duration
				fetchName, fetchCh := "fetch.batch", cluster.ChannelInter
				switch {
				case feed.Store != nil:
					fetchName = "fetch.boundary"
					x, y, _, fetchBytes = feed.Store.FetchBatch(rep, idx, &buf)
					fetchCost = net.FetchTime(fetchBytes)
				case feed.Remote:
					fetchBytes = int64(cfg.BatchSize) * pairBytes
					fetchCost = net.FetchTime(fetchBytes)
				case feed.Device != nil:
					fetchName, fetchCh = "fetch.h2d", cluster.ChannelIntra
					fetchBytes = int64(len(idx)) * pairBytes
					var err error
					if fetchCost, err = feed.Device.Transfer("batch.transient", fetchBytes); err != nil {
						return err
					}
				}
				if fetchBytes > 0 {
					tw.Span(trace.KindFetch, fetchName, commStream(fetchCh), w.VirtualTime(), fetchCost, fetchBytes)
					tw.Span(trace.KindExposed, fetchName, trace.StreamExposed, w.VirtualTime(), fetchCost, 0)
					if feed.Device != nil {
						w.AdvanceTime(fetchCost) // off the fabric: no link-degrade scaling
					} else {
						w.FetchRemote(fetchBytes)
					}
					comm += fetchCost
					expCh[fetchCh] += fetchCost
				}
				if pf != nil {
					// Pipelined path: receive the pre-assembled batch before
					// the timed span starts (waiting for the collator is
					// assembly, not compute).
					var ok bool
					x, y, ok = pf.Next()
					if !ok {
						return fmt.Errorf("shard: rank %d: prefetcher exhausted at step %d of %d", rank, s, stepsThisEpoch)
					}
				}
				if pf != nil && s == stepsThisEpoch-1 && len(evalBatches) > 0 {
					// Tail overlap: the epoch's last train step has no next
					// train batch to collate, so the background collator
					// assembles the first eval batch under it instead and the
					// eval pass no longer serializes with the epoch tail.
					evalPf = batching.NewPrefetcher(data, evalBatches)
				}
				start := time.Now()
				stats.BeginStep()
				haloWall := stats.Wall
				if pf == nil && feed.Store == nil {
					x, y = data.AssembleBatch(idx, &buf)
				}
				target := own(y.Slice(3, 0, 1).Contiguous())
				pred := model.Forward(autograd.Constant(own(x)))
				lossLocal := lossFn(pred, target)
				// The sum of the shard losses equals the global-mean loss, so
				// summing the backward gradients across the replica group
				// reproduces the unsharded gradient exactly.
				loss := lossLocal
				if sharded {
					loss = autograd.ScalarMul(lossLocal, ownFrac)
				}
				var fwdWall, bwdWall time.Duration
				if bucketed {
					// Bucketed overlapping two-stage sync: bucket collectives
					// launch from the timed gradient-ready hook while backward
					// still runs.
					syncer.Reset()
					fwdWall = time.Since(start) - (stats.Wall - haloWall)
					if fwdWall < 0 {
						fwdWall = 0
					}
					bwdHaloWall := stats.Wall
					// Bucket ready stamps, like the halo launch offsets, must
					// measure backward *compute*: strip the halo-exchange
					// blocking accumulated so far this backward pass (the
					// syncer already strips its own collective blocking).
					hook := func(leaf *autograd.Variable, elapsed time.Duration) {
						syncer.OnGradReady(leaf, elapsed-(stats.Wall-bwdHaloWall))
					}
					var err error
					bwdWall, err = autograd.BackwardTimed(loss, hook)
					if err != nil {
						return fmt.Errorf("shard: rank %d backward: %w", rank, err)
					}
					// Like the ReadyAt stamps, the backward span excludes
					// time blocked inside collective launches and halo
					// exchanges.
					bwdWall -= syncer.CommWall() + (stats.Wall - bwdHaloWall)
					if bwdWall < 0 {
						bwdWall = 0
					}
					syncer.Flush(bwdWall)
					// Gradients are now globally synchronized; the clip point
					// is unchanged (after the sync). Under bounded staleness
					// clipping moves to application time.
					if cfg.ClipNorm > 0 && !stale {
						nn.ClipGradNorm(model, cfg.ClipNorm)
					}
				} else if err := autograd.Backward(loss); err != nil {
					return fmt.Errorf("shard: rank %d backward: %w", rank, err)
				}
				// The step's compute span. Modeled runs keep the timeline
				// structural (machine-independent virtual clocks); measured
				// runs subtract the wall time spent blocked in exchanges and
				// collective launches (that is communication, not compute).
				structural := cfg.ComputeCost != nil
				var compute time.Duration
				if structural {
					compute = time.Duration(computeFrac * float64(cfg.ComputeCost(len(idx))))
					fwdWall, bwdWall = 0, 0
				} else {
					compute = time.Since(start) - (stats.Wall - haloWall)
					if bucketed {
						compute -= syncer.CommWall()
					}
					if compute < 0 {
						compute = 0
					}
				}
				epochCompute += compute
				compute = w.ScaleCompute(compute)
				epochMeasured += compute
				// Charge the step: overlapped halo launches ride the replica
				// group's engine and gradient buckets the shard group's, each
				// engine serializing its own events while the two pipeline
				// independently (cluster.OverlapFinishChannels); the clock
				// advances by max(compute, every engine's last finish). Under
				// a flat topology both groups map to the single fabric
				// channel and the charge degenerates to the legacy serialized
				// timeline; with both schedules blocking the event list is
				// empty and it degenerates further to the compute-only
				// advance (the blocking halo exchanges charged the clock
				// inline and the flatten sync charges it below).
				// asm prices collating this step's batch; nextAsm is what the
				// background collator works on under this step — the next
				// train batch, or (on the epoch's last step) the first eval
				// batch the tail-overlap prefetcher is filling.
				var asm, nextAsm time.Duration
				if cfg.AssembleCost != nil && feed.Store == nil {
					asm = cfg.AssembleCost(len(idx))
					if pf != nil {
						if s+1 < stepsThisEpoch {
							nextAsm = asm
						} else if evalPf != nil {
							nextAsm = cfg.AssembleCost(len(evalBatches[0]))
						}
					}
				}
				if asm > 0 && pf != nil && s == 0 {
					// Pipeline fill: the epoch's leading assembly has no
					// previous step to hide under.
					tw.Span(trace.KindAssemble, "assemble.fill", trace.StreamAssembly, w.VirtualTime(), asm, 0)
					w.AdvanceTime(asm)
				}
				t0 := w.VirtualTime()
				var events []cluster.CommEvent
				var meta []stepSpanMeta
				var haloExposed time.Duration
				haloStepCost := stats.StepCost()
				if haloOverlap {
					hev := stats.StepEvents(compute, structural)
					for i := range hev {
						hev[i].Channel = haloCh
					}
					haloExposed = cluster.OverlapFinish(compute, hev) - compute
					events = append(events, hev...)
					if tw != nil {
						for i := range hev {
							meta = append(meta, stepSpanMeta{kind: trace.KindHalo, label: stats.stepLabels[i], bytes: stats.stepBytes[i]})
						}
					}
				}
				var gradFinish time.Duration
				if bucketed {
					gevs := syncer.Timeline(compute, fwdWall, bwdWall)
					for i := range gevs {
						gevs[i].Channel = gradCh
					}
					if stale {
						// Bounded staleness: the step no longer waits for its
						// own gradient collectives — they book onto the
						// persistent gradient engine spanning steps, and step
						// s+K blocks on this step's finish instead.
						for gi, ev := range gevs {
							st := t0 + ev.ReadyAt
							if gradChanFree > st {
								st = gradChanFree
							}
							if tw != nil {
								tw.Span(trace.KindGrad, fmt.Sprintf("grad b%d", syncer.LaunchBuckets()[gi]), trace.StreamGradEngine, st, ev.Cost, syncer.LaunchWire()[gi])
							}
							gradChanFree = st + ev.Cost
						}
						gradFinish = gradChanFree
					} else {
						if tw != nil {
							for i := range gevs {
								meta = append(meta, stepSpanMeta{kind: trace.KindGrad, label: fmt.Sprintf("grad b%d", syncer.LaunchBuckets()[i]), bytes: syncer.LaunchWire()[i]})
							}
						}
						events = append(events, gevs...)
						// A stable sort's output is uniquely determined by the
						// keys and the original order, so sorting through the
						// meta-carrying sorter leaves the event slice exactly
						// as sort.SliceStable produced it before.
						sort.Stable(&stepEventSorter{events: events, meta: meta})
					}
				}
				step := cluster.OverlapFinishChannels(compute, events)
				exposed := step - compute
				// Host-side collation: the serial path exposes it ahead of
				// the step; the prefetch pipeline assembles the next batch
				// under this step, so the step charge is max(step, assemble).
				if pf == nil {
					if asm > 0 {
						step += asm
					}
				} else if nextAsm > step {
					step = nextAsm
				}
				stepEnd := t0 + step
				stats.Hidden += haloStepCost - haloExposed
				for c, d := range cluster.OverlapChannelExposure(compute, events) {
					expCh[c] += d
				}
				if tw != nil {
					// The step body (compute + overlapped comm) starts after
					// the serially-exposed assembly; the prefetch path's
					// assembly is occupancy under the step.
					base := t0
					if pf == nil {
						if asm > 0 {
							base += asm
							tw.Span(trace.KindAssemble, "assemble", trace.StreamAssembly, t0, asm, 0)
						}
					} else if nextAsm > 0 {
						name := "assemble.next"
						if s+1 >= stepsThisEpoch {
							name = "assemble.eval"
						}
						tw.Span(trace.KindAssemble, name, trace.StreamAssembly, t0, nextAsm, 0)
					}
					tw.Span(trace.KindCompute, "compute", trace.StreamCompute, base, compute, 0)
					spans, _ := cluster.OverlapScheduleChannels(compute, events)
					for i, sp := range spans {
						m := meta[i]
						tw.Span(m.kind, m.label, commStream(sp.Event.Channel), base+sp.Start, sp.Finish-sp.Start, m.bytes)
					}
					if exposed > 0 {
						tw.Span(trace.KindExposed, "comm.tail", trace.StreamExposed, base+compute, exposed, 0)
					}
				}
				if stale {
					gv := []float64(nil)
					if n := len(freeVecs); n > 0 {
						gv, freeVecs = freeVecs[n-1], freeVecs[:n-1]
					}
					gv = ddp.FlattenGrads(params, gv)
					// The update is deferred; clear the accumulated grads so
					// the next backward starts from zero (opt.Step, which
					// normally zeroes them, is skipped this step).
					for _, pm := range params {
						pm.V.ZeroGrad()
					}
					staleQ = append(staleQ, pendingGrad{vec: gv, finish: gradFinish})
					var tail time.Duration
					if len(staleQ) > K {
						pg := staleQ[0]
						staleQ = staleQ[1:]
						if pg.finish > stepEnd {
							tail = pg.finish - stepEnd
							tw.Span(trace.KindExposed, "stale.tail", trace.StreamExposed, stepEnd, tail, 0)
							stepEnd = pg.finish
						}
						tw.AsyncSpan(trace.KindStaleApply, "stale.apply", trace.StreamGradEngine, pg.finish, stepEnd-pg.finish, 0)
						applyStale(pg.vec)
					}
					comm += tail
					expCh[gradCh] += tail
					if hid := syncer.TotalCost() - tail; hid > 0 {
						commHidden += hid
					}
					gradBytes += syncer.StepBytes()
					savedBytes += syncer.StepSaved()
					w.AdvanceTime(stepEnd - t0)
				} else if bucketed {
					w.AdvanceTime(stepEnd - t0)
					gradExposed := exposed - haloExposed
					comm += gradExposed
					commHidden += syncer.TotalCost() - gradExposed
					gradBytes += syncer.StepBytes()
					savedBytes += syncer.StepSaved()
				} else {
					w.AdvanceTime(stepEnd - t0)
					// Flatten baseline: one flattened exchange after backward,
					// blocking and fully exposed. Every worker ends with the
					// bitwise-identical global gradient.
					gradBuf = ddp.FlattenGrads(params, gradBuf)
					wire := int64(len(gradBuf)) * 8
					var saved int64
					// Quantize only when there are peers: a single worker
					// ships nothing, so rounding its gradients to fp16 would
					// be pure accuracy loss for zero wire benefit.
					if cfg.FP16 && world > 1 {
						flatCodec.ApplyInPlace(gradBuf)
						compressed := cluster.FP16WireBytes(len(gradBuf))
						saved = wire - compressed
						wire = compressed
					}
					// flattenSpan books one blocking collective. The group
					// barrier aligned the clock to the slowest member plus
					// the cost, so its window ends at the current virtual
					// time. Saved and shipped bytes stay on the same
					// per-collective basis: each stage ships (and so saves).
					flattenSpan := func(name string, ch cluster.Channel, cost time.Duration) {
						comm += cost
						expCh[ch] += cost
						if cost > 0 {
							at := w.VirtualTime() - cost
							tw.Span(trace.KindGrad, name, commStream(ch), at, cost, wire)
							tw.Span(trace.KindExposed, name, trace.StreamExposed, at, cost, 0)
						}
						gradBytes += wire
						savedBytes += saved
					}
					if !sharded {
						// The world ring. Attribute the modeled collective
						// cost: the clock delta additionally contains
						// straggler wait, which is compute imbalance, not
						// communication.
						w.RingAllReduceMeanSized(gradBuf, wire)
						flattenSpan("grad.flatten", gradCh, net.RingAllReduceTime(wire, world))
					} else {
						// Sum over the replica group (the spatial reduction),
						// then average over the shard group (the
						// data-parallel mean).
						flattenSpan("grad.flatten.replica-sum", haloCh, w.GroupRingAllReduceSized(gradBuf, replicaGroup, wire, false, cfg.Topology))
						if cfg.Replicas > 1 {
							flattenSpan("grad.flatten.shard-mean", gradCh, w.GroupRingAllReduceSized(gradBuf, shardGroup, wire, true, cfg.Topology))
						}
					}
					ddp.UnflattenGrads(params, gradBuf)
					if cfg.ClipNorm > 0 {
						nn.ClipGradNorm(model, cfg.ClipNorm)
					}
				}
				if !stale {
					// Under staleness the optimizer ran inside applyStale
					// (or the update is still queued).
					opt.Step()
				}
				if tw != nil {
					tw.Span(trace.KindStep, fmt.Sprintf("step %d", steps), trace.StreamStep, t0, w.VirtualTime()-t0, 0)
				}
				steps++
				w.Barrier() // synchronous step boundary (straggler wait)
				if sweep.Active() {
					syncer = sweep.Step(syncer, compute)
					bucketBytes = sweep.BucketBytes()
				}
				// Report in the signal's original units, like validation.
				trainAcc.Add(lossLocal.Value.Item()*std, weight(len(idx)))
				if feed.Device != nil {
					feed.Device.Mem.Free("batch.transient", fetchBytes)
				}
			}
			if pf != nil {
				// Cancellation (or a short schedule) leaves the collator
				// mid-stream; Close drains it either way.
				pf.Close()
				pf = nil
			}
			// Drain the staleness pipeline: every queued gradient applies
			// before evaluation — and before a cancelled exit — so the update
			// count matches the synchronous schedule and replicas stay
			// bitwise identical.
			for len(staleQ) > 0 {
				pg := staleQ[0]
				staleQ = staleQ[1:]
				if d := pg.finish - w.VirtualTime(); d > 0 {
					comm += d
					expCh[gradCh] += d
					tw.Span(trace.KindExposed, "stale.drain", trace.StreamExposed, w.VirtualTime(), d, 0)
					w.AdvanceTime(d)
				}
				tw.AsyncSpan(trace.KindStaleApply, "stale.apply", trace.StreamGradEngine, pg.finish, w.VirtualTime()-pg.finish, 0)
				applyStale(pg.vec)
			}
			if cancelled {
				break
			}
			// The sweep is confined to the first epoch: a short epoch locks
			// in the best candidate tried so far.
			if sweep.Active() {
				syncer = sweep.EndEpoch(syncer)
				bucketBytes = sweep.BucketBytes()
			}
			trainMAE := ddp.ReduceWeighted(w, trainAcc)
			valMAE := evaluateShard(w, model, lossFn, data, evalBatches, evalPf, own, weight, &evalBuf, stats)
			if evalPf != nil {
				evalPf.Close()
				evalPf = nil
			}
			rec := metrics.EpochRecord{Epoch: epoch, TrainMAE: trainMAE, ValMAE: valMAE}
			curve = append(curve, rec)
			if rank == 0 && cfg.OnEpoch != nil {
				cfg.OnEpoch(rec)
			}
			if cfg.Repartition.Enabled() && sharded && epoch+1 < cfg.Epochs &&
				(cfg.Repartition.MaxMoves == 0 || moves < cfg.Repartition.MaxMoves) {
				// Agree on the per-shard load vector without touching the
				// clock: each entry is the max over that shard's replicas of
				// the epoch's accumulated step compute (identical across
				// replicas on structural timelines). Every rank then derives
				// the same decision from the same vector.
				epochLoad := epochCompute
				if cfg.Repartition.Measured {
					epochLoad = epochMeasured
				}
				loads := make([]float64, cfg.Shards)
				for q := range loads {
					v := 0.0
					if q == sh {
						v = epochLoad.Seconds()
					}
					loads[q] = w.AllReduceScalarFree(v, cluster.OpMax)
				}
				if src, dst, nodes, ok := chunkMove(g, myPlan, loads, cfg.Repartition); ok {
					newPlan, err := applyMove(g, supports, myPlan, dst, nodes)
					if err != nil {
						return fmt.Errorf("shard: rank %d repartition: %w", rank, err)
					}
					// Modeled migration window: the moved nodes' full feature
					// history crosses the fabric once; every rank charges the
					// identical cost so the clocks stay aligned.
					bytes := int64(len(nodes)) * int64(entries*features) * 8
					cost := net.FetchTime(bytes)
					if tw != nil {
						tw.Span(trace.KindRepartition, fmt.Sprintf("repartition %d->%d", src, dst), trace.StreamStep, w.VirtualTime(), cost, bytes)
					}
					w.AdvanceTime(cost)
					myPlan = newPlan
					sp = myPlan.Parts[sh]
					ownFrac, computeFrac = fracOf(sp.Own)
					if err := Rebind(props, w, replicaGroup, sp, cfg.Topology, stats, haloOverlap); err != nil {
						return fmt.Errorf("shard: rank %d repartition: %w", rank, err)
					}
					moves++
					if rank == 0 && cfg.OnRepartition != nil {
						cfg.OnRepartition(RepartitionEvent{Epoch: epoch, From: src, To: dst,
							Nodes: nodes, Loads: loads, EdgeCut: myPlan.EdgeCut})
					}
				}
			}
			// Captured after any repartition so the owner vector reflects the
			// state a restart at epoch+1 actually trains on.
			capture(epoch+1, curve)
		}
		var checksum float64
		for _, p := range params {
			checksum += p.Tensor().SumAll()
		}
		w.Barrier()
		buckets := 1
		effectiveBucketBytes := int64(0)
		if bucketed {
			buckets = syncer.NumBuckets()
			effectiveBucketBytes = bucketBytes
		}
		// Fold the inline-charged halo exposure (blocking exchanges, eval
		// settles) into the per-channel split, then publish the counters.
		for c, d := range stats.ChannelExposed {
			expCh[c] += d
		}
		if tw != nil {
			tw.Add("grad.wire.bytes", gradBytes)
			tw.Add("grad.wire.saved.bytes", savedBytes)
			tw.Add("halo.wire.bytes", stats.Bytes)
			tw.Add("comm.exposed.ns", int64(comm))
			tw.Add("comm.hidden.ns", int64(commHidden))
			tw.Add("halo.exposed.ns", int64(stats.Time-stats.Hidden))
			tw.Add("halo.hidden.ns", int64(stats.Hidden))
			tw.Add("comm.exposed.intra.ns", int64(expCh[cluster.ChannelIntra]))
			tw.Add("comm.exposed.inter.ns", int64(expCh[cluster.ChannelInter]))
		}
		outs[rank] = workerOut{
			curve: curve, vt: w.VirtualTime(), comm: comm, commHidden: commHidden,
			halo: *stats, expCh: expCh, gradBytes: gradBytes, savedBytes: savedBytes,
			buckets: buckets, bucketBytes: effectiveBucketBytes,
			steps: steps, repartitions: moves, checksum: checksum, cancelled: cancelled,
		}
		if rank == 0 {
			outs[rank].model, outs[rank].opt = model, opt
			if sharded {
				loads := make([]float64, cfg.Shards)
				for p := range loads {
					_, loads[p] = fracOf(myPlan.Parts[p].Own)
				}
				outs[rank].loads = loads
			}
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	// Every worker must hold the identical parameters: replicas within shard
	// groups by DDP's invariant, shards by the deterministic two-stage sync.
	for r := 1; r < world; r++ {
		if outs[r].checksum != outs[0].checksum {
			return nil, fmt.Errorf("shard: divergence: rank %d checksum %v vs rank 0 %v", r, outs[r].checksum, outs[0].checksum)
		}
	}
	return &Result{
		Curve:            outs[0].curve,
		VirtualTime:      outs[0].vt,
		CommTime:         outs[0].comm,
		CommHiddenTime:   outs[0].commHidden,
		HaloTime:         outs[0].halo.Time,
		HaloHiddenTime:   outs[0].halo.Hidden,
		HaloBytes:        outs[0].halo.Bytes,
		CommExposedIntra: outs[0].expCh[cluster.ChannelIntra],
		CommExposedInter: outs[0].expCh[cluster.ChannelInter],
		GradSyncBytes:    outs[0].gradBytes,
		CommBytesSaved:   outs[0].savedBytes,
		GradBuckets:      outs[0].buckets,
		BucketBytes:      outs[0].bucketBytes,
		Steps:            outs[0].steps,
		GlobalBatch:      cfg.BatchSize * cfg.Replicas,
		Shards:           cfg.Shards,
		Replicas:         cfg.Replicas,
		EdgeCut:          plan.EdgeCut,
		MaxOwn:           plan.MaxOwn(),
		MaxHalo:          plan.MaxHalo(),
		Repartitions:     outs[0].repartitions,
		ShardLoads:       outs[0].loads,
		Model:            outs[0].model,
		Opt:              outs[0].opt,
		Cancelled:        outs[0].cancelled,
	}, nil
}

// evaluateShard computes this worker's share of the validation MAE — its
// replica's slice of the validation batches restricted to its own nodes (own
// and weight are the trainer's owned-node gather and metric weight) —
// and reduces the globally weighted mean (original signal units). Under the
// overlapped halo schedule the evaluation exchanges record step events
// nobody overlaps (there is no modeled eval compute to hide under), so
// their full cost is charged inline per batch — exactly what the blocking
// schedule charges; with blocking exchanges the settle is a no-op. When the
// tail-overlap prefetcher is supplied, batches arrive pre-assembled (the
// first one collated under the epoch's last train step, the rest under the
// preceding eval forwards), so eval collation leaves the wall-clock path.
func evaluateShard(w *cluster.Worker, model nn.SeqModel, lossFn func(*autograd.Variable, *tensor.Tensor) *autograd.Variable, data batching.Source, batches [][]int, pf *batching.Prefetcher, own func(*tensor.Tensor) *tensor.Tensor, weight func(items int) int, buf *batching.BatchBuffer, stats *Stats) float64 {
	var acc metrics.Running
	_, std := data.Norm()
	for _, batch := range batches {
		stats.BeginStep()
		var x, y *tensor.Tensor
		if pf != nil {
			var ok bool
			if x, y, ok = pf.Next(); !ok {
				// The prefetcher covers exactly these batches; exhaustion
				// means Close raced in, so fall back to serial assembly.
				x, y = data.AssembleBatch(batch, buf)
			}
		} else {
			x, y = data.AssembleBatch(batch, buf)
		}
		target := own(y.Slice(3, 0, 1).Contiguous())
		pred := model.Forward(autograd.Constant(own(x)))
		if cost := stats.StepCost(); cost > 0 {
			stats.ChannelExposed[stats.Channel] += cost
			if tw := stats.Trace; tw != nil {
				cursor := w.VirtualTime()
				for i, ev := range stats.events {
					tw.Span(trace.KindHalo, stats.stepLabels[i], commStream(stats.Channel), cursor, ev.Cost, stats.stepBytes[i])
					cursor += ev.Cost
				}
				tw.Span(trace.KindExposed, "halo.eval", trace.StreamExposed, w.VirtualTime(), cost, 0)
			}
			w.AdvanceTime(cost)
		}
		acc.Add(lossFn(pred, target).Value.Item()*std, weight(len(batch)))
	}
	// Weighted-mean over all workers of the 2D grid: each (snapshot, node)
	// pair is seen by exactly one worker.
	return ddp.ReduceWeighted(w, acc)
}

// stepSpanMeta carries the trace annotation of one step comm event (label
// and wire bytes) through the merged-timeline sort.
type stepSpanMeta struct {
	kind  trace.Kind
	label string
	bytes int64
}

// stepEventSorter orders the step's merged comm events by ReadyAt while
// keeping the (optional) trace metadata aligned. It sorts stably, and a
// stable sort's output is uniquely determined by keys and input order, so
// untraced runs (nil meta) produce exactly the slice sort.SliceStable did.
type stepEventSorter struct {
	events []cluster.CommEvent
	meta   []stepSpanMeta
}

func (s *stepEventSorter) Len() int           { return len(s.events) }
func (s *stepEventSorter) Less(i, j int) bool { return s.events[i].ReadyAt < s.events[j].ReadyAt }
func (s *stepEventSorter) Swap(i, j int) {
	s.events[i], s.events[j] = s.events[j], s.events[i]
	if s.meta != nil {
		s.meta[i], s.meta[j] = s.meta[j], s.meta[i]
	}
}

// gatherNodeAxis selects the given nodes along axis 2 of a [B, T, N, F]
// tensor, producing [B, T, len(nodes), F] — the worker's slice of a batch.
func gatherNodeAxis(t *tensor.Tensor, nodes []int) *tensor.Tensor {
	shape := t.Shape()
	out := tensor.New(shape[0], shape[1], len(nodes), shape[3])
	for i, n := range nodes {
		out.Slice(2, i, i+1).CopyFrom(t.Slice(2, n, n+1))
	}
	return out
}
