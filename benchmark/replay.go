package main

import (
	"fmt"
	"time"

	"pgti"
	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/nn"
	"pgti/internal/shard"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// replaySpec is the shape of one training step of a workload: enough to
// rebuild that step from the layers' exported functions.
type replaySpec struct {
	meta             dataset.Meta // what one Fit trains on
	hidden, k, batch int
	replicas, shards int
	standard         bool // standard batching (materialised copies) instead of index views
	seed             uint64
}

func (rs replaySpec) world() int { return rs.replicas * max(rs.shards, 1) }

// replaySteps bounds the layer replay: enough steps for a median, few
// enough to stay inside a run's time budget.
const (
	replaySteps  = 40
	replayBudget = 2500 * time.Millisecond
)

// replay rebuilds the fit workload's step (see replayLayers).
func (r *run) replay(units []trainUnit) error {
	meta, err := r.fit.meta()
	if err != nil {
		return err
	}
	rs := replaySpec{
		meta: meta, hidden: r.fit.hidden, k: r.fit.k, batch: r.fit.batch,
		replicas: r.fit.replicas(), shards: r.fit.shards,
		standard: r.fit.strategy == pgti.StrategyBaseline, seed: r.cfg.seed,
	}
	perStep, perSample := untracedFit(units)
	return r.replayLayers(rs, perStep, perSample)
}

// untracedFit is the median wall time of Fit per optimizer step and per
// training snapshot over the untraced units: what the replay is sized by
// and compared with.
func untracedFit(units []trainUnit) (perStep, perSample float64) {
	var steps, samples []float64
	for _, u := range units {
		if !u.traced && u.steps > 0 {
			steps = append(steps, u.fitS()/float64(u.steps))
			samples = append(samples, u.fitS()/float64(u.samples()))
		}
	}
	return median(steps), median(samples)
}

// replayLayers is source 1 of the per-layer metrics. It rebuilds the
// workload's training step from the layers' exported functions at the
// workload's shapes (same dataset shape, seed, model size, worker grid),
// runs it with a span around every call into a layer, and then times the
// layers' kernels one at a time at the same shapes. The replayed step takes
// the plain path: one AllReduce of the flattened gradient after backward,
// where the trainers overlap bucketed AllReduces with backward.
func (r *run) replayLayers(rs replaySpec, fitPerStep, fitPerSample float64) error {
	rec := r.rec
	ms := func(layer, name string, fn func()) float64 { return 1e3 * rec.timed(layer, name, -1, -1, 0, false, fn) }

	var ds *dataset.Dataset
	var err error
	r.set("dataset.generate_ms", ms("dataset", "Generate", func() { ds, err = dataset.Generate(rs.meta, rs.seed) }))
	if err != nil {
		return err
	}
	aug := ds.Augmented()
	if !rs.meta.TimeOfDay {
		aug = aug.Clone() // as core.Open does: decouple from the generator's buffer
	}
	fwd, bwd := ds.Graph.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	in, horizon := rs.meta.Features(), rs.meta.Horizon

	var std *batching.StandardResult
	if rs.standard {
		r.set("batching.standard_prep_ms", ms("batching", "StandardPreprocess", func() {
			std, err = batching.StandardPreprocess(aug, horizon, batching.DefaultTrainFrac, nil)
		}))
		if err != nil {
			return err
		}
		r.set("batching.retained_mb", float64(std.StandardRetainedBytes())/1e6)
	}
	var idx *batching.IndexDataset
	if !rs.standard {
		r.set("batching.index_prep_ms", ms("batching", "NewIndexDataset", func() {
			idx, err = batching.NewIndexDataset(aug, horizon, batching.DefaultTrainFrac, nil)
		}))
		if err != nil {
			return err
		}
		r.set("batching.retained_mb", float64(idx.RetainedBytes())/1e6)
	}
	split := batching.MakeSplit(rs.meta.Snapshots(), batching.DefaultTrainFrac, batching.DefaultValFrac)

	world := rs.world()
	var plan *shard.Plan
	if rs.shards > 1 {
		r.set("shard.plan_ms", ms("shard", "BuildPlan", func() { plan, err = shard.BuildPlan(ds.Graph, supports, rs.shards) }))
		if err != nil {
			return err
		}
	}
	clu, err := cluster.New(cluster.Config{Workers: world})
	if err != nil {
		return err
	}

	steps := replaySteps
	if fitPerStep > 0 {
		steps = min(steps, max(4, int(replayBudget.Seconds()/fitPerStep)))
	}
	if r.cfg.quick {
		steps = 4
	}
	stepSamples := make([]int, steps) // snapshots all replicas consume in each replayed step
	err = clu.Run(func(w *cluster.Worker) error {
		rank := w.Rank()
		shards := max(rs.shards, 1)
		rep, sh := rank/shards, rank%shards
		var own []int
		ownFrac := 1.0
		var model nn.SeqModel
		var stats shard.Stats
		replicaGroup, shardGroup := make([]int, shards), make([]int, rs.replicas)
		if plan != nil {
			for i := range replicaGroup {
				replicaGroup[i] = rep*shards + i
			}
			for i := range shardGroup {
				shardGroup[i] = i*shards + sh
			}
			sp := plan.Parts[sh]
			own = sp.Own
			ownFrac = float64(len(own)) / float64(rs.meta.Nodes)
			props := shard.Propagators(w, replicaGroup, sp, cluster.Topology{}, &stats, false)
			model = nn.NewPGTDCRNNOn(tensor.NewRNG(rs.seed), props, rs.k, in, rs.hidden, horizon)
		} else {
			model = nn.NewPGTDCRNN(tensor.NewRNG(rs.seed), supports, rs.k, in, rs.hidden, horizon)
		}
		params := model.Parameters()
		opt := nn.NewAdam(model, 0.01)
		sampler := batching.NewGlobalShuffler(split.Train, rs.batch, rs.replicas, rep, rs.seed)
		var batches [][]int
		us := rec.timed("batching", "GlobalShuffler.EpochBatches", -1, -1, rank, false, func() { batches = sampler.EpochBatches(0) })
		if rank == 0 {
			r.set("batching.sampler_epoch_us", us*1e6)
		}
		// One warm-up step ahead of the recorded ones, and as many epochs
		// as the step count needs.
		for epoch := 1; len(batches) < steps+1; epoch++ {
			batches = append(batches, sampler.EpochBatches(epoch)...)
		}
		var buf batching.BatchBuffer
		var gradBuf []float64
		// The gradient exchange of this worker's grid: two-stage on the 2D
		// grid, a ring otherwise.
		allReduce := func() {
			if plan != nil {
				w.AsyncTwoStageAllReduce(gradBuf, replicaGroup, shardGroup, int64(len(gradBuf))*8, cluster.Topology{})
			} else {
				w.RingAllReduceMean(gradBuf)
			}
		}
		for s := -1; s < steps; s++ {
			// Odd steps sample allocations (on rank 0) and are not timed;
			// the warm-up step (-1) leaves no spans.
			sample := sampleAllocs(s, rank)
			call := func(layer, name string, parent int, fn func()) {
				if s < 0 {
					fn()
					return
				}
				rec.timed(layer, name, parent, s, rank, sample, fn)
			}
			step := -1
			batch := batches[s+1]
			if s >= 0 {
				step = rec.begin("core", "step", -1, s, rank, sample)
				if rank == 0 {
					stepSamples[s] = len(batch) * rs.replicas
				}
			}
			stats.BeginStep()
			var x, y *tensor.Tensor
			if rs.standard {
				call("batching", "StandardResult.Batch", step, func() { x, y = std.Batch(batch) })
			} else {
				call("batching", "IndexDataset.AssembleBatch", step, func() { x, y = idx.AssembleBatch(batch, &buf) })
			}
			target := y.Slice(3, 0, 1).Contiguous()
			if own != nil {
				x, target = gatherNodes(x, own), gatherNodes(target, own)
			}
			var pred, loss *autograd.Variable
			call("nn", "PGTDCRNN.Forward", step, func() { pred = model.Forward(autograd.Constant(x)) })
			call("autograd", "MAELoss", step, func() {
				loss = autograd.MAELoss(pred, target)
				if own != nil {
					// Shard losses weighted by node share sum to the global mean.
					loss = autograd.ScalarMul(loss, ownFrac)
				}
			})
			var berr error
			call("autograd", "Backward", step, func() { berr = autograd.Backward(loss) })
			if berr != nil {
				return fmt.Errorf("replay rank %d backward: %w", rank, berr)
			}
			if world > 1 {
				call("ddp", "FlattenGrads", step, func() { gradBuf = ddp.FlattenGrads(params, gradBuf) })
				call("cluster", "AllReduce", step, allReduce)
				call("ddp", "UnflattenGrads", step, func() { ddp.UnflattenGrads(params, gradBuf) })
			}
			call("nn", "ClipGradNorm", step, func() { nn.ClipGradNorm(model, 5) })
			call("nn", "Adam.Step", step, func() { opt.Step() })
			if s >= 0 {
				rec.end(step)
			}
		}

		// The collectives on their own, at the gradient's length.
		if world > 1 {
			gradBuf = ddp.FlattenGrads(params, gradBuf)
			for i := 0; i < kernelReps(r); i++ {
				rec.timed("cluster", "bench.AllReduce", -1, -1, rank, sampleAllocs(i, rank), allReduce)
			}
		}
		if plan != nil {
			sp := plan.Parts[sh]
			ex := shard.NewExchanger(w, replicaGroup, sh, sp.Exchanges[0], cluster.Topology{}, &stats, false)
			local := tensor.New(len(own), rs.batch*(in+rs.hidden))
			for i := 0; i < kernelReps(r); i++ {
				rec.timed("shard", "bench.Exchanger.Gather", -1, -1, rank, false, func() { ex.Gather(local) })
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	r.reportStepLayers(world, stepSamples, fitPerSample)
	r.benchKernels(rs, supports, clu)
	return nil
}

// gatherNodes keeps the given nodes of a [B, T, N, F] tensor, as the
// sharded trainer does for each worker's owned block.
func gatherNodes(t *tensor.Tensor, nodes []int) *tensor.Tensor {
	shape := t.Shape()
	out := tensor.New(shape[0], shape[1], len(nodes), shape[3])
	for i, n := range nodes {
		out.Slice(2, i, i+1).CopyFrom(t.Slice(2, n, n+1))
	}
	return out
}

// kernelReps is how often a kernel is run on its own; like the replayed
// steps, the runs alternate between timed and allocation-sampled.
func kernelReps(r *run) int {
	if r.cfg.quick {
		return 4
	}
	return 30
}

// sampleAllocs says whether repetition i on this rank samples allocations
// rather than time: every other one, on rank 0.
func sampleAllocs(i, rank int) bool { return rank == 0 && i%2 == 1 }

// spanStats returns, over rank 0's spans of one name, the median duration
// in ns of the timed ones and the median allocation count and bytes of the
// sampled ones, divided by the number of workers that ran side by side.
func (r *run) spanStats(name string, workers int) (medianNS, allocs, bytes float64) {
	var ds, as, bs []float64
	for _, s := range r.rec.snapshot() {
		switch {
		case s.Name != name || s.TID != 0:
		case s.Sampled:
			as = append(as, float64(s.Allocs)/float64(workers))
			bs = append(bs, float64(s.Bytes)/float64(workers))
		default:
			ds = append(ds, float64(s.End-s.Start))
		}
	}
	return median(ds), median(as), median(bs)
}

// reportStepLayers turns the replayed step's spans into layer metrics.
func (r *run) reportStepLayers(world int, stepSamples []int, fitPerSample float64) {
	r.workers = world
	stepNS, _, _ := r.spanStats("step", world)
	r.set("core.step_ms", stepNS/1e6)
	// What Fit spends per training snapshot beyond the replayed steps: loop
	// bookkeeping, per-epoch validation, sampler, reports. Compared per
	// snapshot, not per step, because an epoch's last batch is short.
	var ns, samples float64
	for _, s := range r.rec.snapshot() {
		if s.Name == "step" && s.TID == 0 && !s.Sampled {
			ns += float64(s.End - s.Start)
			samples += float64(stepSamples[s.Step])
		}
	}
	if fitPerSample > 0 && samples > 0 {
		r.set("core.fit_unexplained_share", 1-ns/1e9/samples/fitPerSample)
	}
	fwd, fwdAllocs, fwdBytes := r.spanStats("PGTDCRNN.Forward", world)
	r.set("nn.forward_ms", fwd/1e6)
	r.set("nn.forward_allocs", fwdAllocs)
	r.set("nn.forward_alloc_kb", fwdBytes/1024)
	bwd, bwdAllocs, bwdBytes := r.spanStats("Backward", world)
	r.set("autograd.backward_ms", bwd/1e6)
	r.set("autograd.backward_allocs", bwdAllocs)
	r.set("autograd.backward_alloc_kb", bwdBytes/1024)
	loss, _, _ := r.spanStats("MAELoss", world)
	r.set("autograd.loss_us", loss/1e3)
	adam, _, _ := r.spanStats("Adam.Step", world)
	r.set("nn.adam_step_us", adam/1e3)
	asm, _, _ := r.spanStats("IndexDataset.AssembleBatch", world)
	r.set("batching.assemble_us", asm/1e3)
	stdBatch, _, _ := r.spanStats("StandardResult.Batch", world)
	r.set("batching.standard_batch_us", stdBatch/1e3)
	flat, _, _ := r.spanStats("FlattenGrads", world)
	unflat, _, _ := r.spanStats("UnflattenGrads", world)
	r.set("ddp.flatten_us", (flat+unflat)/1e3)
	ar, arAllocs, _ := r.spanStats("bench.AllReduce", world)
	r.set("cluster.allreduce_us", ar/1e3)
	r.set("cluster.allreduce_allocs", arAllocs)
	gather, _, _ := r.spanStats("bench.Exchanger.Gather", world)
	r.set("shard.halo_gather_us", gather/1e3)
}

// benchKernels times single kernels of tensor, sparse, nn and cluster at the
// shapes one worker's step uses them at. They run alone, so their
// allocation deltas are exact.
func (r *run) benchKernels(rs replaySpec, supports []*sparse.CSR, clu *cluster.Cluster) {
	nodes := rs.meta.Nodes / max(rs.shards, 1) // one worker's node block
	in, h, b := rs.meta.Features(), rs.hidden, rs.batch
	rng := tensor.NewRNG(rs.seed)
	bench := func(layer, name string, fn func()) {
		for i := 0; i < kernelReps(r); i++ {
			r.rec.timed(layer, name, -1, -1, 0, sampleAllocs(i, 0), fn)
		}
	}
	// The gate projection of a diffusion convolution.
	mats := 1 + rs.k*len(supports)
	a, wgt := tensor.Randn(rng, b*nodes, mats*(in+h)), tensor.Randn(rng, mats*(in+h), h)
	bench("tensor", "bench.MatMul", func() { tensor.MatMul(a, wgt) })
	us, allocs, _ := r.spanStats("bench.MatMul", 1)
	r.set("tensor.matmul_us", us/1e3)
	r.set("tensor.matmul_allocs", allocs)
	act := tensor.Randn(rng, b, nodes, h)
	bench("tensor", "bench.Sigmoid", func() { act.Sigmoid() })
	us, _, _ = r.spanStats("bench.Sigmoid", 1)
	r.set("tensor.sigmoid_us", us/1e3)

	// One hop of the forward support over the node-major features.
	feats := tensor.Randn(rng, rs.meta.Nodes, b*(in+h))
	bench("sparse", "bench.CSR.SpMM", func() { supports[0].SpMM(feats) })
	us, allocs, _ = r.spanStats("bench.CSR.SpMM", 1)
	r.set("sparse.spmm_us", us/1e3)
	r.set("sparse.spmm_allocs", allocs)

	// One recurrence step of the cell, forward only, on the full graph.
	cell := nn.NewDCGRUCell(rng, "bench.cell", supports, rs.k, in, h)
	x, hid := autograd.Constant(tensor.Randn(rng, b, rs.meta.Nodes, in)), cell.InitState(b, rs.meta.Nodes)
	bench("nn", "bench.DCGRUCell.Step", func() { cell.Step(x, hid) })
	us, _, _ = r.spanStats("bench.DCGRUCell.Step", 1)
	r.set("nn.dcgru_step_ms", us/1e6)

	bench("cluster", "bench.Cluster.Run", func() { _ = clu.Run(func(*cluster.Worker) error { return nil }) })
	us, _, _ = r.spanStats("bench.Cluster.Run", 1)
	r.set("cluster.run_spawn_us", us/1e3)
}
