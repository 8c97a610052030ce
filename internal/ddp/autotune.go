// Bucket-size autotuning: the right GradBucketBytes sits at the fabric's
// latency/bandwidth knee. Too-small buckets pay a per-collective latency
// tax; too-large buckets launch late in backward and leave an exposed
// communication tail. Rather than hardcoding the trade-off, the tuner
// sweeps a candidate ladder across the first epoch's steps — one candidate
// per optimizer step, scored on the modeled overlapped step time — and
// locks in the winner for the rest of the run.
package ddp

import (
	"math"
	"time"

	"pgti/internal/cluster"
)

// AutotuneCandidates returns the bucket-size ladder the autotuner sweeps:
// powers of two starting at the network's latency/bandwidth knee (the
// payload size whose serialization time equals the wire latency, i.e.
// Bandwidth*Latency bytes, floored to a power of two and never below 4 KiB)
// and doubling up to the full gradient size, at most eight candidates. A
// gradient smaller than the knee gets the single candidate totalBytes.
func AutotuneCandidates(net cluster.NetworkModel, totalBytes int64) []int64 {
	if totalBytes < 1 {
		totalBytes = 1
	}
	knee := int64(net.Bandwidth * net.Latency.Seconds())
	const floor = 4 << 10
	if knee < floor {
		knee = floor
	}
	// Floor to a power of two so ladders are stable across close models.
	knee = 1 << uint(math.Ilogb(float64(knee)))
	if knee >= totalBytes {
		return []int64{totalBytes}
	}
	var out []int64
	for c := knee; c < totalBytes && len(out) < 7; c *= 2 {
		out = append(out, c)
	}
	return append(out, totalBytes)
}

// BucketTuner drives one worker's first-epoch bucket-size sweep. Every
// worker runs an identical tuner and scores candidates through an OpMax
// scalar AllReduce, so all replicas lock in the same winner at the same
// step — the collective schedule never diverges. Shared with the hybrid
// (spatial x data) trainer, whose two-stage bucketed sync tunes the same
// ladder.
type BucketTuner struct {
	candidates []int64
	times      []time.Duration
	next       int // candidate to try on the upcoming step
}

func NewBucketTuner(candidates []int64) *BucketTuner {
	return &BucketTuner{candidates: candidates, times: make([]time.Duration, 0, len(candidates))}
}

// Active reports whether the sweep still has candidates to score.
func (t *BucketTuner) Active() bool { return t.next < len(t.candidates) }

// Current returns the bucket size the upcoming step should use.
func (t *BucketTuner) Current() int64 { return t.candidates[t.next] }

// Record scores the just-finished step (whose buckets used Current()) with
// the globally agreed modeled step time and advances the sweep.
func (t *BucketTuner) Record(stepTime time.Duration) {
	t.times = append(t.times, stepTime)
	t.next++
}

// Winner returns the best-scoring candidate among those tried (the first
// candidate when the sweep never ran — e.g. a one-step epoch).
func (t *BucketTuner) Winner() int64 {
	best := 0
	for i := 1; i < len(t.times); i++ {
		if t.times[i] < t.times[best] {
			best = i
		}
	}
	return t.candidates[best]
}

// BucketSweep is the grid trainer's per-worker sweep driver: it owns the tuner, the reference compute span every candidate
// is scored against, and the syncer rebuilds — one candidate per optimizer
// step, scored on the measurement-free modeled step time agreed across
// workers (OpMax), so a noisy measured step cannot mis-rank a candidate and
// every rank locks the same winner at the same step.
type BucketSweep struct {
	w       *cluster.Worker
	tuner   *BucketTuner
	rebuild func(bucketBytes int64) *OverlapSyncer
	onLock  func(bucketBytes int64)

	bucketBytes int64
	refCompute  time.Duration
	refSet      bool
}

// NewBucketSweep builds the sweep over the AutotuneCandidates ladder for a
// gradient of totalBytes. rebuild constructs a syncer for a candidate bucket
// cap; onLock (optional) fires once when the winner locks — callers gate it
// to rank 0 themselves. The initial syncer is rebuild(first candidate).
func NewBucketSweep(w *cluster.Worker, net cluster.NetworkModel, totalBytes int64, rebuild func(bucketBytes int64) *OverlapSyncer, onLock func(bucketBytes int64)) (*BucketSweep, *OverlapSyncer) {
	s := &BucketSweep{
		w:       w,
		tuner:   NewBucketTuner(AutotuneCandidates(net, totalBytes)),
		rebuild: rebuild,
		onLock:  onLock,
	}
	s.bucketBytes = s.tuner.Current()
	return s, rebuild(s.bucketBytes)
}

// Active reports whether the sweep is still scoring candidates (nil-safe, so
// trainers without autotuning skip the per-step call unconditionally).
func (s *BucketSweep) Active() bool { return s != nil && s.tuner != nil }

// BucketBytes returns the cap of the candidate in flight, or the locked
// winner once the sweep ends.
func (s *BucketSweep) BucketBytes() int64 { return s.bucketBytes }

// Step scores the just-finished step (whose buckets the given syncer ran)
// and returns the syncer for the next step: rebuilt around the next ladder
// candidate, or around the locked winner when the ladder is exhausted. Must
// be called at the synchronous step boundary — it issues a scalar
// collective.
func (s *BucketSweep) Step(syncer *OverlapSyncer, compute time.Duration) *OverlapSyncer {
	if !s.refSet {
		s.refCompute, s.refSet = compute, true
	}
	agreed := time.Duration(s.w.AllReduceScalar(float64(syncer.ModeledFinish(s.refCompute)), cluster.OpMax))
	s.tuner.Record(agreed)
	if s.tuner.Active() {
		s.bucketBytes = s.tuner.Current()
		return s.rebuild(s.bucketBytes)
	}
	return s.lock()
}

// EndEpoch confines the sweep to the first epoch: a short epoch locks in the
// best candidate tried so far. Returns the syncer to continue with.
func (s *BucketSweep) EndEpoch(syncer *OverlapSyncer) *OverlapSyncer {
	if !s.Active() {
		return syncer
	}
	return s.lock()
}

// lock ends the sweep: every worker rebuilds its syncer around the globally
// agreed winner (identical tuner state on every rank).
func (s *BucketSweep) lock() *OverlapSyncer {
	s.bucketBytes = s.tuner.Winner()
	syncer := s.rebuild(s.bucketBytes)
	s.tuner = nil
	if s.onLock != nil {
		s.onLock(s.bucketBytes)
	}
	return syncer
}
