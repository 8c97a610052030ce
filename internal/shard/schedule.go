package shard

import (
	"fmt"
	"sort"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/nn"
	"pgti/internal/trace"
)

// gradSchedule is how a worker's gradients become an optimizer step. The
// step calls it at fixed points and never asks which schedule it is.
type gradSchedule interface {
	// backward runs the step's backward pass from loss.
	backward(loss *autograd.Variable) error
	// commWall is the wall time the step blocked in gradient launches.
	commWall() time.Duration
	// overlap puts the step's gradient collectives on a timeline.
	overlap()
	// apply advances the clock to the step's end, completes the exchange
	// and steps the optimizer.
	apply()
	// endStep runs after the step barrier, with the step's scaled compute.
	endStep(compute time.Duration)
	// drain applies what is still held, at epoch end and on cancellation.
	drain()
	// endEpoch closes a completed epoch.
	endEpoch()
	// buckets reports the per-step bucket count and the effective cap.
	buckets() (n int, capBytes int64)
}

// newSchedule picks the worker's gradient schedule once, from Algo, the
// world size and Staleness: flat for ddp.GradAlgoFlat and for a lone worker
// (bucketed overlap only pays off with real peers), stale when Staleness >
// 0, bucketed otherwise.
func newSchedule(wk *worker) gradSchedule {
	if wk.cfg.Algo == ddp.GradAlgoFlat || wk.world == 1 {
		return &flatSchedule{wk: wk}
	}
	b := newBucketedSchedule(wk)
	if wk.cfg.Staleness > 0 {
		return &staleSchedule{bucketedSchedule: b, k: wk.cfg.Staleness}
	}
	return b
}

// flatSchedule is the blocking baseline: one flattened exchange after
// backward, fully exposed — the replica-group sum (sharded grids only) then
// the shard-group mean, which on a 1xR grid is the ring over the whole
// world. Every worker ends with the bitwise-identical global gradient.
type flatSchedule struct {
	wk    *worker
	buf   []float64
	codec cluster.FP16Codec
}

func (f *flatSchedule) backward(loss *autograd.Variable) error { return autograd.Backward(loss) }
func (f *flatSchedule) commWall() time.Duration                { return 0 }
func (f *flatSchedule) overlap()                               {}
func (f *flatSchedule) endStep(time.Duration)                  {}
func (f *flatSchedule) drain()                                 {}
func (f *flatSchedule) endEpoch()                              {}
func (f *flatSchedule) buckets() (int, int64)                  { return 1, 0 }

func (f *flatSchedule) apply() {
	wk, st := f.wk, &f.wk.st
	wk.w.AdvanceTime(st.stepEnd - st.t0)
	f.buf = ddp.FlattenGrads(wk.params, f.buf)
	wire := int64(len(f.buf)) * 8
	var saved int64
	// A single worker ships nothing: rounding its gradients to fp16 would
	// be pure accuracy loss.
	if wk.cfg.FP16 && wk.world > 1 {
		f.codec.ApplyInPlace(f.buf)
		compressed := cluster.FP16WireBytes(len(f.buf))
		saved = wire - compressed
		wire = compressed
	}
	name := "grad.flatten"
	if wk.sharded {
		f.book("grad.flatten.replica-sum", wk.stats.Channel, wk.w.GroupRingAllReduceSized(f.buf, wk.replicaGroup, wire, false, wk.cfg.Topology), wire, saved)
		name = "grad.flatten.shard-mean"
	}
	// A sharded grid's lone replica has no shard-group stage; a lone worker
	// still books the bytes it would ship.
	if !wk.sharded || wk.cfg.Replicas > 1 {
		f.book(name, wk.gradCh, wk.w.GroupRingAllReduceSized(f.buf, wk.shardGroup, wire, true, wk.cfg.Topology), wire, saved)
	}
	ddp.UnflattenGrads(wk.params, f.buf)
	if wk.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(wk.model, wk.cfg.ClipNorm)
	}
	wk.opt.Step()
}

// book charges one blocking collective, whose window ends at the current
// virtual time (the group barrier aligned the clocks). Each stage ships,
// and so saves, its own bytes.
func (f *flatSchedule) book(name string, ch cluster.Channel, cost time.Duration, wire, saved int64) {
	wk := f.wk
	wk.expose(ch, cost)
	if cost > 0 {
		at := wk.w.VirtualTime() - cost
		wk.tw.Span(trace.KindGrad, name, commStream(ch), at, cost, wire)
		wk.tw.Span(trace.KindExposed, name, trace.StreamExposed, at, cost, 0)
	}
	wk.res.GradSyncBytes += wire
	wk.res.CommBytesSaved += saved
}

// bucketedSchedule launches size-capped bucket collectives from the timed
// gradient-ready hook while backward still runs; their modeled cost joins
// the step's overlap timeline on the shard group's channel.
type bucketedSchedule struct {
	wk               *worker
	syncer           *ddp.OverlapSyncer
	sweep            *ddp.BucketSweep
	bucketBytes      int64
	fwdWall, bwdWall time.Duration // the measured split the timeline rescales
}

// newBucketedSchedule wires the syncer to the grid's collective: the
// two-stage replica-group sum then shard-group mean, which on a 1xR grid,
// whose replica groups have one member, is the world ring; or the
// node-aware hierarchical world AllReduce (unsharded only).
func newBucketedSchedule(wk *worker) *bucketedSchedule {
	w, topo := wk.w, wk.cfg.Topology
	collective := func(vec []float64, wireBytes int64) time.Duration {
		return w.AsyncTwoStageAllReduce(vec, wk.replicaGroup, wk.shardGroup, wireBytes, topo)
	}
	if wk.cfg.Algo == ddp.GradAlgoHierarchical {
		collective = func(vec []float64, wireBytes int64) time.Duration {
			return w.AsyncHierarchicalAllReduceMeanSized(vec, topo, wireBytes)
		}
	}
	// Time blocked inside a launch is booked against the step so the halo
	// launch offsets measure compute only (the syncer's CommWall keeps the
	// bucket offsets clean of halo blocking in turn).
	launch := func(vec []float64, wireBytes int64) time.Duration {
		t0 := time.Now()
		cost := collective(vec, wireBytes)
		wk.stats.stepBlocked += time.Since(t0)
		return cost
	}
	// The fp16 codecs are per parameter and outlive any one syncer, so
	// error-feedback residuals survive the autotuner's re-bucketing.
	var codecOf ddp.CodecMap
	if wk.cfg.FP16 {
		codecOf = ddp.CodecMap{}
	}
	rebuild := func(bucketBytes int64) *ddp.OverlapSyncer {
		return ddp.NewOverlapSyncer(ddp.BucketGrads(wk.params, bucketBytes), launch, codecOf)
	}
	b := &bucketedSchedule{wk: wk, bucketBytes: wk.cfg.BucketBytes}
	if !wk.cfg.AutoTuneBuckets {
		if b.bucketBytes <= 0 {
			b.bucketBytes = ddp.DefaultBucketBytes
		}
		b.syncer = rebuild(b.bucketBytes)
		return b
	}
	onLock := func(bucketBytes int64) {
		if wk.rank == 0 && wk.cfg.OnAutotuneLock != nil {
			wk.cfg.OnAutotuneLock(bucketBytes)
		}
	}
	b.sweep, b.syncer = ddp.NewBucketSweep(w, wk.net, ddp.ParameterGradBytes(wk.params), rebuild, onLock)
	b.bucketBytes = b.sweep.BucketBytes()
	return b
}

// backward clips after the sync, where every worker holds the same
// gradient.
func (b *bucketedSchedule) backward(loss *autograd.Variable) error {
	err := b.hookedBackward(loss)
	if err == nil && b.wk.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(b.wk.model, b.wk.cfg.ClipNorm)
	}
	return err
}

// hookedBackward runs backward with the syncer's gradient-ready hook and
// flushes the buckets backward never completed. The ready stamps and the
// backward span, like the halo launch offsets, measure compute: halo and
// collective blocking is stripped from both.
func (b *bucketedSchedule) hookedBackward(loss *autograd.Variable) error {
	st, stats := &b.wk.st, b.wk.stats
	b.syncer.Reset()
	if b.fwdWall = time.Since(st.start) - (stats.Wall - st.haloWall); b.fwdWall < 0 {
		b.fwdWall = 0
	}
	bwdHaloWall := stats.Wall
	hook := func(leaf *autograd.Variable, elapsed time.Duration) {
		b.syncer.OnGradReady(leaf, elapsed-(stats.Wall-bwdHaloWall))
	}
	bwdWall, err := autograd.BackwardTimed(loss, hook)
	if err != nil {
		return err
	}
	if b.bwdWall = bwdWall - (b.syncer.CommWall() + (stats.Wall - bwdHaloWall)); b.bwdWall < 0 {
		b.bwdWall = 0
	}
	b.syncer.Flush(b.bwdWall)
	return nil
}

func (b *bucketedSchedule) commWall() time.Duration { return b.syncer.CommWall() }
func (b *bucketedSchedule) drain()                  {}
func (b *bucketedSchedule) buckets() (int, int64)   { return b.syncer.NumBuckets(), b.bucketBytes }

// timeline stamps the step's bucket launches onto its compute span (the
// structural timeline on modeled runs), on the shard group's channel.
func (b *bucketedSchedule) timeline() []cluster.CommEvent {
	st := &b.wk.st
	fwdWall, bwdWall := b.fwdWall, b.bwdWall
	if st.structural {
		fwdWall, bwdWall = 0, 0
	}
	gevs := b.syncer.Timeline(st.compute, fwdWall, bwdWall)
	for i := range gevs {
		gevs[i].Channel = b.wk.gradCh
	}
	return gevs
}

func (b *bucketedSchedule) overlap() {
	st := &b.wk.st
	gevs := b.timeline()
	if b.wk.tw != nil {
		for i := range gevs {
			st.meta = append(st.meta, stepSpanMeta{kind: trace.KindGrad, label: fmt.Sprintf("grad b%d", b.syncer.LaunchBuckets()[i]), bytes: b.syncer.LaunchWire()[i]})
		}
	}
	st.events = append(st.events, gevs...)
	sort.Stable(st)
}

func (b *bucketedSchedule) apply() {
	wk, st := b.wk, &b.wk.st
	wk.w.AdvanceTime(st.stepEnd - st.t0)
	gradExposed := st.exposed - st.haloExposed
	wk.res.CommTime += gradExposed
	wk.res.CommHiddenTime += b.syncer.TotalCost() - gradExposed
	wk.res.GradSyncBytes += b.syncer.StepBytes()
	wk.res.CommBytesSaved += b.syncer.StepSaved()
	wk.opt.Step()
}

// endStep advances the bucket autotuner's sweep.
func (b *bucketedSchedule) endStep(compute time.Duration) {
	if b.sweep.Active() {
		b.syncer = b.sweep.Step(b.syncer, compute)
		b.bucketBytes = b.sweep.BucketBytes()
	}
}

// endEpoch confines the sweep to the first epoch: a short epoch locks in
// the best candidate tried so far.
func (b *bucketedSchedule) endEpoch() {
	if b.sweep.Active() {
		b.syncer = b.sweep.EndEpoch(b.syncer)
		b.bucketBytes = b.sweep.BucketBytes()
	}
}

// staleSchedule is the bucketed exchange under bounded staleness (see
// Config.Staleness): each step's synchronized gradient is queued with the
// virtual time its collectives finish on a persistent gradient engine, and
// applied once it is k steps old. The exchange itself stays synchronous, so
// every rank holds the same queue.
type staleSchedule struct {
	*bucketedSchedule
	k     int
	queue []pendingGrad
	free  [][]float64
	// last is the last applied gradient, comp the compensation's scratch.
	last, comp []float64
	// engineFree is when the gradient engine idles; finish is when the
	// current step's collectives complete on it.
	engineFree, finish time.Duration
}

type pendingGrad struct {
	vec    []float64
	finish time.Duration
}

// backward defers clipping to application time.
func (s *staleSchedule) backward(loss *autograd.Variable) error { return s.hookedBackward(loss) }

// overlap books the collectives onto the gradient engine instead of the
// step's timeline: step s+k, not this one, waits for them.
func (s *staleSchedule) overlap() {
	wk := s.wk
	for gi, ev := range s.timeline() {
		at := wk.st.t0 + ev.ReadyAt
		if s.engineFree > at {
			at = s.engineFree
		}
		if wk.tw != nil {
			wk.tw.Span(trace.KindGrad, fmt.Sprintf("grad b%d", s.syncer.LaunchBuckets()[gi]), trace.StreamGradEngine, at, ev.Cost, s.syncer.LaunchWire()[gi])
		}
		s.engineFree = at + ev.Cost
	}
	s.finish = s.engineFree
}

func (s *staleSchedule) apply() {
	wk, st := s.wk, &s.wk.st
	gv := []float64(nil)
	if n := len(s.free); n > 0 {
		gv, s.free = s.free[n-1], s.free[:n-1]
	}
	gv = ddp.FlattenGrads(wk.params, gv)
	// The update is deferred: clear the grads so the next backward starts
	// from zero (opt.Step, which would, does not run this step).
	for _, pm := range wk.params {
		pm.V.ZeroGrad()
	}
	s.queue = append(s.queue, pendingGrad{vec: gv, finish: s.finish})
	var tail time.Duration
	if len(s.queue) > s.k {
		pg := s.queue[0]
		s.queue = s.queue[1:]
		if pg.finish > st.stepEnd {
			tail = pg.finish - st.stepEnd
			wk.tw.Span(trace.KindExposed, "stale.tail", trace.StreamExposed, st.stepEnd, tail, 0)
			st.stepEnd = pg.finish
		}
		wk.tw.AsyncSpan(trace.KindStaleApply, "stale.apply", trace.StreamGradEngine, pg.finish, st.stepEnd-pg.finish, 0)
		s.applyGrad(pg.vec)
	}
	wk.expose(wk.gradCh, tail)
	if hid := s.syncer.TotalCost() - tail; hid > 0 {
		wk.res.CommHiddenTime += hid
	}
	wk.res.GradSyncBytes += s.syncer.StepBytes()
	wk.res.CommBytesSaved += s.syncer.StepSaved()
	wk.w.AdvanceTime(st.stepEnd - st.t0)
}

// drain applies every queued gradient, waiting out its collectives, so the
// update count matches the synchronous schedule.
func (s *staleSchedule) drain() {
	wk := s.wk
	for len(s.queue) > 0 {
		pg := s.queue[0]
		s.queue = s.queue[1:]
		if d := pg.finish - wk.w.VirtualTime(); d > 0 {
			wk.expose(wk.gradCh, d)
			wk.tw.Span(trace.KindExposed, "stale.drain", trace.StreamExposed, wk.w.VirtualTime(), d, 0)
			wk.w.AdvanceTime(d)
		}
		wk.tw.AsyncSpan(trace.KindStaleApply, "stale.apply", trace.StreamGradEngine, pg.finish, wk.w.VirtualTime()-pg.finish, 0)
		s.applyGrad(pg.vec)
	}
}

// applyGrad applies a delayed gradient extrapolated k steps along its last
// observed change, g + k*(g - g_prev) — a first-order correction for the
// weights having moved since it was computed (the first one applies as-is).
func (s *staleSchedule) applyGrad(g []float64) {
	wk := s.wk
	comp := g
	if s.last != nil {
		if cap(s.comp) < len(g) {
			s.comp = make([]float64, len(g))
		}
		s.comp = s.comp[:len(g)]
		kf := float64(s.k)
		for i := range g {
			s.comp[i] = g[i] + kf*(g[i]-s.last[i])
		}
		comp = s.comp
	}
	ddp.UnflattenGrads(wk.params, comp)
	if wk.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(wk.model, wk.cfg.ClipNorm)
	}
	wk.opt.Step()
	if s.last != nil {
		s.free = append(s.free, s.last)
	}
	s.last = g
}
