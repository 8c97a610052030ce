package shard

import (
	"context"
	"fmt"
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
	// HaloSyncOverlap (default) is interior-first: each ShardSpMM launches
	// its halo exchange, multiplies the rows whose columns are all owned
	// while the bytes fly, and finishes the frontier rows once the halo
	// lands (mirrored in backward). Results are bitwise those of blocking.
	HaloSyncOverlap HaloSyncMode = iota
	// HaloSyncBlocking gathers, then multiplies, exposing every exchange's
	// full cost. Kept for ablation benchmarks.
	HaloSyncBlocking
)

// Feed is how a worker's batches reach its device and what each one costs on
// the virtual clock: at most one transfer, charged inline and fully exposed
// ahead of the step. The zero value assembles locally for free.
type Feed struct {
	// Remote fetches every batch over the fabric (baseline DDP; Shards == 1).
	Remote bool
	// Store partitions the data rows across the replicas (§5.4): only rows
	// outside the replica's partition travel as remote traffic (Shards == 1).
	Store *batching.PartitionStore
	// Device models a host-resident dataset: every batch takes a pageable
	// host-to-device copy and sits on the device's tracker (label
	// "batch.transient") for the step — the cost GPU-index-batching removes.
	Device *device.Device
}

// Config parameterizes a training run on a Shards x Replicas process grid
// (rank layout: see groups). Either axis degenerates at 1: a 1 x R grid is
// plain data-parallel training, an S x 1 grid pure spatial sharding, and
// 1 x 1 a single worker.
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
	// Prefetch pipelines batch assembly one batch deep against the step,
	// bitwise identical to the serial path; with the windows resident at
	// step start, the first forward halo exchange launches immediately.
	// Ignored when Feed.Store supplies the data.
	Prefetch bool
	// AssembleCost, when set, supplies the modeled host-side collation time
	// of one batch. Serial runs expose it ahead of every step; under
	// Prefetch the next batch's assembly runs under the current step and
	// only the epoch's leading assembly is exposed. Ignored with Feed.Store.
	AssembleCost func(batchItems int) time.Duration
	// Staleness K > 0 selects the stale schedule (bucketed sync only): the
	// collective still launches every step, but each synchronized gradient
	// applies K steps late as g + K*(g - g_prev), so the sync hides under
	// the next K steps' compute. The queue drains at epoch end and on
	// cancellation, so every gradient applies exactly once.
	Staleness int
	// Plan, when set, supplies a prebuilt partition (callers that need the
	// shard sizes up front, e.g. for memory accounting, build it once and
	// pass it in). When nil, Train builds it from the graph.
	Plan *Plan
	// Repartition enables elastic chunk migration from the heaviest shard to
	// the lightest at epoch boundaries (see Repartition); the zero value
	// keeps the partition static.
	Repartition Repartition
	// NodeWeights, with ComputeCost, charges each shard its share of the
	// total node weight instead of its node-count share (skew injection;
	// one per node). Losses keep the node-count share.
	NodeWeights []float64
	// OnRepartition fires on rank 0 after each applied chunk migration.
	OnRepartition func(ev RepartitionEvent)

	// Algo selects the gradient schedule with the world size and Staleness
	// (see newSchedule). ddp.GradAlgoRing (default) launches size-capped
	// bucket collectives mid-backward onto the step's overlap timeline — the
	// world ring at Shards == 1, the two-stage replica-group sum then
	// shard-group mean otherwise; ddp.GradAlgoHierarchical does so over the
	// node-aware world AllReduce (Shards == 1 only); ddp.GradAlgoFlat is the
	// blocking baseline, one flattened exchange after backward.
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

	// Ctx, when cancellable, is polled once per step through an agreed,
	// clock-free scalar collective, so the grid stops at the same step with
	// Result.Cancelled set and the completed epochs' curve.
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
	// Faults arms the grid with a deterministic fault plan: crashes abort
	// with a typed *cluster.WorkerLostError once the survivors agree,
	// stragglers inflate step compute, link degrades every transfer. An
	// empty plan is bitwise identical to nil.
	Faults *fault.Plan
	// OnSnapshot streams rank 0's epoch-boundary captures, the recovery
	// anchors (the first fires before the first epoch).
	OnSnapshot func(snap Snapshot)
}

// Snapshot is a consistent epoch-boundary capture: enough state to restart
// training at NextEpoch on any grid and continue bitwise (every worker
// holds the same parameters and moments at the boundary).
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

// Accounting is a run's clock and traffic ledger as worker 0 books it, the
// block Result and core.Report share.
type Accounting struct {
	Curve metrics.Curve
	// VirtualTime is the synchronized clock at completion: per step,
	// assembly, forward and backward (measured, or ComputeCost/AssembleCost)
	// plus the communication the step exposed. CommTime is that exposed
	// part (gradient sync, remote fetches, host-to-device copies; halo apart)
	// and CommHiddenTime the gradient sync the bucketed overlap hid.
	VirtualTime    time.Duration
	CommTime       time.Duration
	CommHiddenTime time.Duration
	// CommExposedIntra / CommExposedInter split the exposed communication
	// by channel; the tails run concurrently, so they can sum past the total.
	CommExposedIntra time.Duration
	CommExposedInter time.Duration
	// HaloTime / HaloBytes are the modeled halo cost and wire traffic;
	// HaloHiddenTime is the part the interior-first overlap hid.
	HaloTime       time.Duration
	HaloHiddenTime time.Duration
	HaloBytes      int64
	// GradSyncBytes is the gradient wire traffic (compressed under FP16),
	// CommBytesSaved what fp16 avoided. GradBuckets is the per-step bucket
	// count and GradBucketBytes the effective (autotuned) cap: 1 and 0 for
	// the flat schedule.
	GradSyncBytes   int64
	CommBytesSaved  int64
	GradBuckets     int
	GradBucketBytes int64
	// GlobalBatch is BatchSize * Replicas.
	Steps        int
	GlobalBatch  int
	Repartitions int
	// ShardLoads is the final per-shard structural compute share (summing to
	// 1; nil at Shards == 1): its spread is the skew left after
	// repartitioning.
	ShardLoads []float64
}

// Result summarizes a grid run.
type Result struct {
	Accounting
	// EdgeCut and MaxOwn describe the partition the run started from
	// (halo-traffic and memory-balance proxies).
	EdgeCut, MaxOwn int
	// Model and Opt are rank 0's replica and optimizer; the parameters are
	// propagator-independent, so they load into a full-graph model.
	Model nn.SeqModel
	Opt   *nn.Adam
	// Cancelled reports that Config.Ctx stopped the grid at an agreed step.
	Cancelled bool
}

// Train runs the grid trainer, the repo's one step loop (a single GPU is the
// 1x1 grid; Feed, Loss and the batching.Source tell the strategies apart).
// It validates cfg, builds the partition and the simulated cluster, and runs
// one worker per rank: every worker steps through the same fixed phases,
// with its gradient schedule — flat, bucketed or stale — chosen once (see
// newSchedule). The graph is partitioned into cfg.Shards node blocks, each of
// cfg.Replicas data replicas spans one replica group of shard workers, halo
// rows travel within replica groups during forward/backward, and gradients
// are summed across each replica group then averaged across shard groups. At
// Shards == 1 the spatial stages vanish and the collective is the world ring
// (or hierarchical) AllReduce: plain DDP. A sharded run matches the
// unsharded one within floating-point reassociation. By default both
// communication legs overlap with compute and the clock charges each step
// max(compute, pipelined comm); the blocking schedules remain for ablation.
// Every worker must end with identical parameters; the Result is rank 0's.
func Train(data batching.Source, split batching.Split, g *graph.Graph, supports []*sparse.CSR, factory ModelFactory, cfg Config) (*Result, error) {
	j, err := newJob(data, split, g, supports, factory, cfg)
	if err != nil {
		return nil, err
	}
	clu, err := cluster.New(cluster.Config{Workers: j.world, Net: cfg.Net, Faults: cfg.Faults})
	if err != nil {
		return nil, err
	}
	j.net = clu.Net()
	workers := make([]*worker, j.world)
	err = clu.Run(func(w *cluster.Worker) error {
		wk, err := newWorker(j, w)
		if err != nil {
			return err
		}
		defer wk.close()
		workers[w.Rank()] = wk
		return wk.run()
	})
	if err != nil {
		return nil, err
	}
	for r := 1; r < j.world; r++ {
		if workers[r].checksum != workers[0].checksum {
			return nil, fmt.Errorf("shard: divergence: rank %d checksum %v vs rank 0 %v", r, workers[r].checksum, workers[0].checksum)
		}
	}
	return &workers[0].res, nil
}

// job is one Train call's validated configuration and what it derives for
// every worker alike.
type job struct {
	cfg                                         Config
	data                                        batching.Source
	split                                       batching.Split
	g                                           *graph.Graph
	supports                                    []*sparse.CSR
	factory                                     ModelFactory
	initPlan                                    *Plan
	loss                                        func(pred *autograd.Variable, target *tensor.Tensor) *autograd.Variable
	std, lr, totalWeight                        float64
	world, entries, features                    int
	pairBytes                                   int64 // one snapshot's x and y windows
	net                                         cluster.NetworkModel
	sharded, prefetch, haloOverlap, cancellable bool
}

// newJob validates cfg against the data and graph and resolves the plan,
// loss and learning rate.
func newJob(data batching.Source, split batching.Split, g *graph.Graph, supports []*sparse.CSR, factory ModelFactory, cfg Config) (*job, error) {
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
	j := &job{
		cfg: cfg, data: data, split: split, g: g, supports: supports, factory: factory,
		initPlan: plan, loss: cfg.Loss, lr: cfg.LR, world: world, entries: entries, features: features,
		pairBytes: int64(2*horizon) * int64(nodes) * int64(features) * 8,
		sharded:   sharded, prefetch: cfg.Prefetch && feed.Store == nil,
		haloOverlap: cfg.HaloSync == HaloSyncOverlap, cancellable: cfg.Ctx != nil && cfg.Ctx.Done() != nil,
	}
	if j.loss == nil {
		j.loss = autograd.MAELoss
	}
	_, j.std = data.Norm()
	if j.lr <= 0 {
		j.lr = 0.01
	}
	if cfg.UseLRScaling {
		j.lr = nn.ScaleLR(j.lr, cfg.Replicas)
	}
	for _, nw := range cfg.NodeWeights {
		j.totalWeight += nw
	}
	return j, nil
}

// fracs splits a shard's two shares: the loss weight is always the
// node-count share (Σ shard losses must equal the global mean exactly),
// while the structural compute charge uses the NodeWeights share when skew
// is injected.
func (j *job) fracs(own []int) (lossFrac, computeFrac float64) {
	lossFrac = float64(len(own)) / float64(j.g.N)
	computeFrac = lossFrac
	if j.cfg.NodeWeights != nil && j.totalWeight > 0 {
		s := 0.0
		for _, u := range own {
			s += j.cfg.NodeWeights[u]
		}
		computeFrac = s / j.totalWeight
	}
	return lossFrac, computeFrac
}

// worker is one rank of the grid. Each step runs the same phases in order —
// poll, fetch, forwardBackward, chargeCompute, chargeOverlap, the gradient
// schedule's apply, endStep — and what varies between runs is data the
// phases read, not a branch on which schedule runs.
type worker struct {
	*job
	w                        *cluster.Worker
	rank, rep, sh            int
	replicaGroup, shardGroup []int
	plan                     *Plan // repartitioning replaces it mid-run
	sp                       *ShardPlan
	ownFrac, computeFrac     float64
	tw                       *trace.Worker
	stats                    *Stats
	props                    []nn.Propagator
	model                    nn.SeqModel
	params                   []*nn.Parameter
	opt                      *nn.Adam
	sampler                  batching.BatchSampler
	evalBatches              [][]int
	// Eval has its own buffer so it never clobbers a train prefetch slot.
	buf, evalBuf batching.BatchBuffer
	pf, evalPf   *batching.Prefetcher
	// The shard group's channel carries gradients (stats.Channel the halo).
	gradCh      cluster.Channel
	sched       gradSchedule
	chanExposed [cluster.NumChannels]time.Duration
	trainAcc    metrics.Running
	// The epoch's compute before and after straggler scaling.
	epochCompute, epochMeasured time.Duration
	st                          stepState
	res                         Result
	checksum                    float64
}

// stepState is one step's working set, handed from phase to phase.
type stepState struct {
	idx         []int
	s, steps    int // index in the epoch, steps this epoch
	x, y        *tensor.Tensor
	fetchBytes  int64
	start       time.Time
	haloWall    time.Duration
	lossLocal   *autograd.Variable
	structural  bool
	compute     time.Duration
	t0, stepEnd time.Duration // on the virtual clock
	// events is the overlap timeline (meta its trace labels when traced).
	events               []cluster.CommEvent
	meta                 []stepSpanMeta
	exposed, haloExposed time.Duration
}

// newWorker builds rank w.Rank()'s replica, optimizer, sampler and gradient
// schedule.
func newWorker(j *job, w *cluster.Worker) (*worker, error) {
	cfg := &j.cfg
	wk := &worker{job: j, w: w, rank: w.Rank(), plan: j.initPlan}
	wk.rep, wk.sh, wk.replicaGroup, wk.shardGroup = groups(wk.rank, cfg.Shards, cfg.Replicas)
	wk.sp = wk.plan.Parts[wk.sh]
	wk.ownFrac, wk.computeFrac = j.fracs(wk.sp.Own)
	wk.tw = cfg.Trace.Worker(wk.rank)
	cfg.Trace.NameWorker(wk.rank, fmt.Sprintf("train rank %d (replica %d, shard %d)", wk.rank, wk.rep, wk.sh))
	wk.stats = &Stats{PinFirstLaunch: j.prefetch, Trace: wk.tw}
	wk.props = nn.WrapSupports(j.supports) // the whole graph routes no halo
	if j.sharded {
		wk.props = Propagators(w, wk.replicaGroup, wk.sp, cfg.Topology, wk.stats, j.haloOverlap)
	}
	wk.model = j.factory(cfg.Seed, wk.props)
	wk.params = wk.model.Parameters()
	wk.opt = nn.NewAdam(wk.model, j.lr)
	if cfg.Init != nil {
		if err := cfg.Init(wk.model, wk.opt); err != nil {
			return nil, fmt.Errorf("shard: rank %d init: %w", wk.rank, err)
		}
	}
	wk.sampler = ddp.NewSampler(cfg.Sampler, j.split.Train, cfg.BatchSize, cfg.Replicas, wk.rep, cfg.Seed)
	evalLo, evalHi := batching.PartitionRange(len(j.split.Val), cfg.Replicas, wk.rep)
	wk.evalBatches = batching.Batches(j.split.Val[evalLo:evalHi], cfg.BatchSize)
	wk.stats.Channel = cfg.Topology.GroupChannel(j.world, wk.replicaGroup)
	wk.gradCh = cluster.ChannelInter
	if j.sharded {
		wk.gradCh = cfg.Topology.GroupChannel(j.world, wk.shardGroup)
	}
	wk.sched = newSchedule(wk)
	return wk, nil
}

// close releases the prefetchers on every exit path.
func (wk *worker) close() {
	if wk.pf != nil {
		wk.pf.Close()
	}
	if wk.evalPf != nil {
		wk.evalPf.Close()
	}
}

// run trains epochs [StartEpoch, Epochs) and fills the worker's Result.
func (wk *worker) run() error {
	wk.capture(wk.cfg.StartEpoch) // anchors a crash inside the first epoch
	for epoch := wk.cfg.StartEpoch; epoch < wk.cfg.Epochs && !wk.res.Cancelled; epoch++ {
		if err := wk.epoch(epoch); err != nil {
			return err
		}
	}
	wk.finish()
	return nil
}

// epoch runs one epoch's steps, then (unless cancelled) its evaluation,
// elastic repartitioning and snapshot.
func (wk *worker) epoch(epoch int) error {
	batches := wk.sampler.EpochBatches(epoch)
	steps := int(wk.w.AllReduceScalar(float64(len(batches)), cluster.OpMin))
	if wk.prefetch {
		wk.pf = batching.NewPrefetcher(wk.data, batches[:steps])
	}
	wk.trainAcc = metrics.Running{}
	wk.epochCompute, wk.epochMeasured = 0, 0
	for s := 0; s < steps; s++ {
		cancelled, err := wk.poll()
		if err != nil {
			return err
		}
		if wk.res.Cancelled = cancelled; cancelled {
			break
		}
		if err := wk.step(batches[s], s, steps); err != nil {
			return err
		}
	}
	if wk.pf != nil {
		wk.pf.Close() // drains a collator cancellation left mid-stream
		wk.pf = nil
	}
	wk.sched.drain() // before evaluation and before a cancelled exit
	if wk.res.Cancelled {
		return nil
	}
	wk.sched.endEpoch()
	trainMAE := ddp.ReduceWeighted(wk.w, wk.trainAcc)
	valMAE := wk.evaluate()
	if wk.evalPf != nil {
		wk.evalPf.Close()
		wk.evalPf = nil
	}
	rec := metrics.EpochRecord{Epoch: epoch, TrainMAE: trainMAE, ValMAE: valMAE}
	wk.res.Curve = append(wk.res.Curve, rec)
	if wk.rank == 0 && wk.cfg.OnEpoch != nil {
		wk.cfg.OnEpoch(rec)
	}
	if err := wk.repartition(epoch); err != nil {
		return err
	}
	// After any repartition, so the owner vector is what epoch+1 trains on.
	wk.capture(epoch + 1)
	return nil
}

// poll agrees on cancellation (clock-free, so a cancellable run keeps a
// plain run's timeline) and detects crashes before a step starts: every
// worker stops at the same step, so no collective is left half-issued.
func (wk *worker) poll() (cancelled bool, err error) {
	if wk.cancellable {
		flag := 0.0
		if wk.cfg.Ctx.Err() != nil {
			flag = 1
		}
		if wk.w.AllReduceScalarFree(flag, cluster.OpMax) > 0 {
			return true, nil
		}
	}
	return false, wk.w.FaultPoll()
}

// step trains batch idx, step s of steps this epoch.
func (wk *worker) step(idx []int, s, steps int) error {
	st := &wk.st
	*st = stepState{idx: idx, s: s, steps: steps, events: st.events[:0], meta: st.meta[:0]}
	if err := wk.fetch(); err != nil {
		return err
	}
	if err := wk.forwardBackward(); err != nil {
		return err
	}
	wk.chargeCompute()
	wk.chargeOverlap()
	wk.sched.apply()
	wk.endStep()
	return nil
}

// fetch charges the feed's per-batch transfer inline, fully exposed, and
// receives a prefetched batch before the timed span starts.
func (wk *worker) fetch() error {
	st, feed := &wk.st, wk.cfg.Feed
	var cost time.Duration
	name, ch := "fetch.batch", cluster.ChannelInter
	switch {
	case feed.Store != nil:
		name = "fetch.boundary"
		st.x, st.y, _, st.fetchBytes = feed.Store.FetchBatch(wk.rep, st.idx, &wk.buf)
		cost = wk.net.FetchTime(st.fetchBytes)
	case feed.Remote:
		st.fetchBytes = int64(len(st.idx)) * wk.pairBytes
		cost = wk.net.FetchTime(st.fetchBytes)
	case feed.Device != nil:
		name, ch = "fetch.h2d", cluster.ChannelIntra
		st.fetchBytes = int64(len(st.idx)) * wk.pairBytes
		var err error
		if cost, err = feed.Device.Transfer("batch.transient", st.fetchBytes); err != nil {
			return err
		}
	}
	if st.fetchBytes > 0 {
		wk.tw.Span(trace.KindFetch, name, commStream(ch), wk.w.VirtualTime(), cost, st.fetchBytes)
		wk.tw.Span(trace.KindExposed, name, trace.StreamExposed, wk.w.VirtualTime(), cost, 0)
		if feed.Device != nil {
			wk.w.AdvanceTime(cost) // off the fabric: no link-degrade scaling
		} else {
			wk.w.FetchRemote(st.fetchBytes)
		}
		wk.expose(ch, cost)
	}
	if wk.pf == nil {
		return nil
	}
	var ok bool
	if st.x, st.y, ok = wk.pf.Next(); !ok {
		return fmt.Errorf("shard: rank %d: prefetcher exhausted at step %d of %d", wk.rank, st.s, st.steps)
	}
	if st.s == st.steps-1 && len(wk.evalBatches) > 0 {
		// Tail overlap: the collator assembles the first eval batch under
		// the epoch's last train step.
		wk.evalPf = batching.NewPrefetcher(wk.data, wk.evalBatches)
	}
	return nil
}

// forwardBackward runs the forward pass and the schedule's backward.
func (wk *worker) forwardBackward() error {
	st := &wk.st
	st.start = time.Now()
	wk.stats.BeginStep()
	st.haloWall = wk.stats.Wall
	if wk.pf == nil && wk.cfg.Feed.Store == nil {
		st.x, st.y = wk.data.AssembleBatch(st.idx, &wk.buf)
	}
	st.lossLocal = wk.loss(wk.forward(st.x, st.y))
	// The shard losses sum to the global-mean loss.
	loss := st.lossLocal
	if wk.sharded {
		loss = autograd.ScalarMul(st.lossLocal, wk.ownFrac)
	}
	if err := wk.sched.backward(loss); err != nil {
		return fmt.Errorf("shard: rank %d backward: %w", wk.rank, err)
	}
	return nil
}

// chargeCompute sets the step's compute span: structural on modeled runs,
// else the elapsed time minus what blocked in exchanges and launches.
func (wk *worker) chargeCompute() {
	st := &wk.st
	st.structural = wk.cfg.ComputeCost != nil
	if st.structural {
		st.compute = time.Duration(wk.computeFrac * float64(wk.cfg.ComputeCost(len(st.idx))))
	} else if st.compute = time.Since(st.start) - (wk.stats.Wall - st.haloWall) - wk.sched.commWall(); st.compute < 0 {
		st.compute = 0
	}
	wk.epochCompute += st.compute
	st.compute = wk.w.ScaleCompute(st.compute)
	wk.epochMeasured += st.compute
}

// chargeOverlap resolves the step's overlap timeline and records its
// spans: halo launches ride the replica group's channel engine and gradient
// buckets the shard group's, each serializing its own events while the two
// pipeline; the step lasts max(compute, every engine's last finish).
// Collation is exposed ahead of the step when serial; prefetched, the
// next batch (or the first eval batch) assembles under it.
func (wk *worker) chargeOverlap() {
	st, cfg, tw := &wk.st, &wk.cfg, wk.tw
	var asm, nextAsm time.Duration
	if cfg.AssembleCost != nil && cfg.Feed.Store == nil {
		asm = cfg.AssembleCost(len(st.idx))
		if wk.pf != nil {
			if st.s+1 < st.steps {
				nextAsm = asm
			} else if wk.evalPf != nil {
				nextAsm = cfg.AssembleCost(len(wk.evalBatches[0]))
			}
		}
	}
	if asm > 0 && wk.pf != nil && st.s == 0 {
		// Pipeline fill: the leading assembly has no step to hide under.
		tw.Span(trace.KindAssemble, "assemble.fill", trace.StreamAssembly, wk.w.VirtualTime(), asm, 0)
		wk.w.AdvanceTime(asm)
	}
	st.t0 = wk.w.VirtualTime()
	haloStepCost := wk.stats.StepCost()
	if wk.haloOverlap {
		hev := wk.stats.StepEvents(st.compute, st.structural)
		for i := range hev {
			hev[i].Channel = wk.stats.Channel
		}
		st.haloExposed = cluster.OverlapFinish(st.compute, hev) - st.compute
		st.events = append(st.events, hev...)
		if tw != nil {
			for i := range hev {
				st.meta = append(st.meta, stepSpanMeta{kind: trace.KindHalo, label: wk.stats.stepLabels[i], bytes: wk.stats.stepBytes[i]})
			}
		}
	}
	wk.sched.overlap()
	step := cluster.OverlapFinishChannels(st.compute, st.events)
	st.exposed = step - st.compute
	if wk.pf == nil {
		if asm > 0 {
			step += asm
		}
	} else if nextAsm > step {
		step = nextAsm
	}
	st.stepEnd = st.t0 + step
	wk.stats.Hidden += haloStepCost - st.haloExposed
	for c, d := range cluster.OverlapChannelExposure(st.compute, st.events) {
		wk.chanExposed[c] += d
	}
	if tw == nil {
		return
	}
	base := st.t0 // the body starts after a serially exposed assembly
	if wk.pf == nil {
		if asm > 0 {
			base += asm
			tw.Span(trace.KindAssemble, "assemble", trace.StreamAssembly, st.t0, asm, 0)
		}
	} else if nextAsm > 0 {
		name := "assemble.next"
		if st.s+1 >= st.steps {
			name = "assemble.eval"
		}
		tw.Span(trace.KindAssemble, name, trace.StreamAssembly, st.t0, nextAsm, 0)
	}
	tw.Span(trace.KindCompute, "compute", trace.StreamCompute, base, st.compute, 0)
	spans, _ := cluster.OverlapScheduleChannels(st.compute, st.events)
	for i, sp := range spans {
		m := st.meta[i]
		tw.Span(m.kind, m.label, commStream(sp.Event.Channel), base+sp.Start, sp.Finish-sp.Start, m.bytes)
	}
	if st.exposed > 0 {
		tw.Span(trace.KindExposed, "comm.tail", trace.StreamExposed, base+st.compute, st.exposed, 0)
	}
}

// endStep closes the step at the synchronous boundary (straggler wait).
func (wk *worker) endStep() {
	st := &wk.st
	if wk.tw != nil {
		wk.tw.Span(trace.KindStep, fmt.Sprintf("step %d", wk.res.Steps), trace.StreamStep, st.t0, wk.w.VirtualTime()-st.t0, 0)
	}
	wk.res.Steps++
	wk.w.Barrier()
	wk.sched.endStep(st.compute)
	// Report in the signal's original units, like validation.
	wk.trainAcc.Add(st.lossLocal.Value.Item()*wk.std, wk.weight(len(st.idx)))
	if wk.cfg.Feed.Device != nil {
		wk.cfg.Feed.Device.Mem.Free("batch.transient", st.fetchBytes)
	}
}

// expose books d of exposed communication on channel ch.
func (wk *worker) expose(ch cluster.Channel, d time.Duration) {
	wk.res.CommTime += d
	wk.chanExposed[ch] += d
}

// forward runs the replica on the worker's slice of a batch (its owned
// nodes on a shard) and returns the prediction and the matching target.
func (wk *worker) forward(x, y *tensor.Tensor) (*autograd.Variable, *tensor.Tensor) {
	target := y.Slice(3, 0, 1).Contiguous()
	if wk.sharded {
		target = gatherNodeAxis(target, wk.sp.Own)
		x = gatherNodeAxis(x, wk.sp.Own)
	}
	return wk.model.Forward(autograd.Constant(x)), target
}

// weight is a batch's metric weight: a shard weighs samples by its nodes.
func (wk *worker) weight(items int) int {
	if !wk.sharded {
		return items
	}
	return items * len(wk.sp.Own)
}

// capture streams the epoch-boundary snapshot from rank 0: parameters and
// optimizer moments are identical on every worker at the boundary.
func (wk *worker) capture(nextEpoch int) {
	if wk.rank != 0 || wk.cfg.OnSnapshot == nil {
		return
	}
	wk.cfg.OnSnapshot(Snapshot{
		NextEpoch:   nextEpoch,
		Params:      nn.SnapshotParams(wk.model),
		State:       nn.CaptureTrainState(wk.opt, nextEpoch),
		Curve:       append(metrics.Curve(nil), wk.res.Curve...),
		Owner:       append([]int(nil), wk.plan.Owner...),
		VirtualTime: wk.w.VirtualTime(),
	})
}

// repartition runs the epoch-boundary elastic migration: the grid agrees,
// clock-free, on the per-shard load vector (each entry the max over that
// shard's replicas of the epoch's compute) and every rank derives the same
// move from it.
func (wk *worker) repartition(epoch int) error {
	rp := wk.cfg.Repartition
	if !rp.Enabled() || !wk.sharded || epoch+1 >= wk.cfg.Epochs || (rp.MaxMoves != 0 && wk.res.Repartitions >= rp.MaxMoves) {
		return nil
	}
	epochLoad := wk.epochCompute
	if rp.Measured {
		epochLoad = wk.epochMeasured
	}
	loads := make([]float64, wk.cfg.Shards)
	for q := range loads {
		v := 0.0
		if q == wk.sh {
			v = epochLoad.Seconds()
		}
		loads[q] = wk.w.AllReduceScalarFree(v, cluster.OpMax)
	}
	src, dst, nodes, ok := chunkMove(wk.g, wk.plan, loads, rp)
	if !ok {
		return nil
	}
	newPlan, err := applyMove(wk.g, wk.supports, wk.plan, dst, nodes)
	if err != nil {
		return fmt.Errorf("shard: rank %d repartition: %w", wk.rank, err)
	}
	// The moved nodes' feature history crosses the fabric once; every rank
	// charges the identical cost so the clocks stay aligned.
	bytes := int64(len(nodes)) * int64(wk.entries*wk.features) * 8
	cost := wk.net.FetchTime(bytes)
	if wk.tw != nil {
		wk.tw.Span(trace.KindRepartition, fmt.Sprintf("repartition %d->%d", src, dst), trace.StreamStep, wk.w.VirtualTime(), cost, bytes)
	}
	wk.w.AdvanceTime(cost)
	wk.plan = newPlan
	wk.sp = wk.plan.Parts[wk.sh]
	wk.ownFrac, wk.computeFrac = wk.fracs(wk.sp.Own)
	if err := Rebind(wk.props, wk.w, wk.replicaGroup, wk.sp, wk.cfg.Topology, wk.stats, wk.haloOverlap); err != nil {
		return fmt.Errorf("shard: rank %d repartition: %w", wk.rank, err)
	}
	wk.res.Repartitions++
	if wk.rank == 0 && wk.cfg.OnRepartition != nil {
		wk.cfg.OnRepartition(RepartitionEvent{Epoch: epoch, From: src, To: dst,
			Nodes: nodes, Loads: loads, EdgeCut: wk.plan.EdgeCut})
	}
	return nil
}

// evaluate reduces the global validation metric over this worker's share:
// its replica's validation batches on its own nodes. Overlapped eval
// exchanges have no compute to hide under, so their full cost is charged
// inline per batch, as the blocking schedule does. The tail-overlap
// prefetcher, when running, delivers batches pre-assembled.
func (wk *worker) evaluate() float64 {
	var acc metrics.Running
	stats := wk.stats
	for _, batch := range wk.evalBatches {
		stats.BeginStep()
		var x, y *tensor.Tensor
		ok := false
		if wk.evalPf != nil {
			x, y, ok = wk.evalPf.Next() // exhausted only if Close raced in
		}
		if !ok {
			x, y = wk.data.AssembleBatch(batch, &wk.evalBuf)
		}
		pred, target := wk.forward(x, y)
		if cost := stats.StepCost(); cost > 0 {
			stats.ChannelExposed[stats.Channel] += cost
			if tw := stats.Trace; tw != nil {
				cursor := wk.w.VirtualTime()
				for i, ev := range stats.events {
					tw.Span(trace.KindHalo, stats.stepLabels[i], commStream(stats.Channel), cursor, ev.Cost, stats.stepBytes[i])
					cursor += ev.Cost
				}
				tw.Span(trace.KindExposed, "halo.eval", trace.StreamExposed, wk.w.VirtualTime(), cost, 0)
			}
			wk.w.AdvanceTime(cost)
		}
		acc.Add(wk.loss(pred, target).Value.Item()*wk.std, wk.weight(len(batch)))
	}
	return ddp.ReduceWeighted(wk.w, acc)
}

// finish takes the parameter checksum, settles the clocks and fills the
// Result and the trace counters.
func (wk *worker) finish() {
	for _, p := range wk.params {
		wk.checksum += p.Tensor().SumAll()
	}
	wk.w.Barrier()
	// Fold in the inline-charged halo exposure (blocking, eval settles).
	for c, d := range wk.stats.ChannelExposed {
		wk.chanExposed[c] += d
	}
	cfg, r := &wk.cfg, &wk.res
	r.VirtualTime = wk.w.VirtualTime()
	r.HaloTime, r.HaloHiddenTime, r.HaloBytes = wk.stats.Time, wk.stats.Hidden, wk.stats.Bytes
	r.CommExposedIntra, r.CommExposedInter = wk.chanExposed[cluster.ChannelIntra], wk.chanExposed[cluster.ChannelInter]
	r.GradBuckets, r.GradBucketBytes = wk.sched.buckets()
	r.GlobalBatch = cfg.BatchSize * cfg.Replicas
	r.EdgeCut, r.MaxOwn = wk.initPlan.EdgeCut, wk.initPlan.MaxOwn()
	r.Model, r.Opt = wk.model, wk.opt
	if wk.sharded {
		r.ShardLoads = make([]float64, cfg.Shards)
		for p := range r.ShardLoads {
			_, r.ShardLoads[p] = wk.fracs(wk.plan.Parts[p].Own)
		}
	}
	if tw := wk.tw; tw != nil {
		tw.Add("grad.wire.bytes", r.GradSyncBytes)
		tw.Add("grad.wire.saved.bytes", r.CommBytesSaved)
		tw.Add("halo.wire.bytes", r.HaloBytes)
		tw.Add("comm.exposed.ns", int64(r.CommTime))
		tw.Add("comm.hidden.ns", int64(r.CommHiddenTime))
		tw.Add("halo.exposed.ns", int64(r.HaloTime-r.HaloHiddenTime))
		tw.Add("halo.hidden.ns", int64(r.HaloHiddenTime))
		tw.Add("comm.exposed.intra.ns", int64(r.CommExposedIntra))
		tw.Add("comm.exposed.inter.ns", int64(r.CommExposedInter))
	}
}

// stepSpanMeta carries the trace annotation of one step comm event (label
// and wire bytes) through the merged-timeline sort.
type stepSpanMeta struct {
	kind  trace.Kind
	label string
	bytes int64
}

// Len, Less and Swap order the step's merged comm events by ReadyAt while
// keeping the trace metadata (nil when untraced) aligned. Sorted stably,
// the events come out exactly as sort.SliceStable would leave them.
func (st *stepState) Len() int           { return len(st.events) }
func (st *stepState) Less(i, j int) bool { return st.events[i].ReadyAt < st.events[j].ReadyAt }
func (st *stepState) Swap(i, j int) {
	st.events[i], st.events[j] = st.events[j], st.events[i]
	if st.meta != nil {
		st.meta[i], st.meta[j] = st.meta[j], st.meta[i]
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
