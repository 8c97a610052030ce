// Package ddp holds the gradient-synchronization machinery of distributed
// data-parallel training, mirroring the paper's Dask-DDP integration: the
// epoch samplers, the flatten/unflatten wire layout, the size-capped gradient
// buckets with their overlapped launch timeline (OverlapSyncer), the fp16
// error-feedback codecs, and the first-epoch bucket autotuner. The step loop
// that drives them is the grid trainer in internal/shard, where a 1 x R grid
// is plain DDP. The gradient exchange is numerically real — replicas remain
// bitwise identical — while virtual clocks accumulate the Polaris-scale
// runtime.
package ddp

import (
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/tensor"
)

// SamplerKind selects the epoch shuffling strategy.
type SamplerKind int

// The three strategies evaluated in the paper.
const (
	// GlobalShuffle reshuffles the full training set every epoch
	// (distributed-index-batching's default, §4.2).
	GlobalShuffle SamplerKind = iota
	// LocalShuffle shuffles within fixed per-worker partitions.
	LocalShuffle
	// BatchShuffle keeps batch contents fixed and shuffles batch order
	// within partitions (generalized-distributed-index-batching, §5.4).
	BatchShuffle
)

// String implements fmt.Stringer.
func (k SamplerKind) String() string {
	switch k {
	case LocalShuffle:
		return "local"
	case BatchShuffle:
		return "batch"
	default:
		return "global"
	}
}

// GradAlgo selects the gradient AllReduce algorithm of the collective stack.
type GradAlgo int

// The three gradient-exchange algorithms.
const (
	// GradAlgoRing (default) is the bucketed overlapping flat ring
	// AllReduce: every hop crosses the fabric.
	GradAlgoRing GradAlgo = iota
	// GradAlgoFlat is the pre-bucketing baseline: one monolithic flattened
	// AllReduce after backward, fully exposed.
	GradAlgoFlat
	// GradAlgoHierarchical is the topology-aware bucketed overlap: buckets
	// reduce within each node over the NVLink-class intra link, ring across
	// node leaders over the fabric, and broadcast back down.
	GradAlgoHierarchical
)

// String implements fmt.Stringer.
func (a GradAlgo) String() string {
	switch a {
	case GradAlgoFlat:
		return "flat"
	case GradAlgoHierarchical:
		return "hierarchical"
	default:
		return "ring"
	}
}

// DefaultBucketBytes caps one gradient bucket at 256 KiB (32Ki float64
// elements), a few buckets for the paper's model sizes — small enough to
// start communicating early in backward, large enough to stay
// bandwidth-bound rather than latency-bound.
const DefaultBucketBytes int64 = 256 << 10

// backwardShare is the fallback fraction of one step's compute attributed to
// the backward pass (the usual 1:2 fwd:bwd cost ratio) when the measured
// wall-clock split is unavailable (timers too coarse to observe anything).
// The overlap model normally uses the per-step measured forward/backward
// timings captured via autograd's timed gradient hooks.
const backwardShare = 2.0 / 3.0

// FlattenGrads packs every parameter gradient into one contiguous vector
// (missing gradients contribute zeros), the unit of AllReduce traffic.
func FlattenGrads(params []*nn.Parameter, buf []float64) []float64 {
	n := 0
	for _, p := range params {
		n += p.Tensor().NumElements()
	}
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	pos := 0
	for _, p := range params {
		cnt := p.Tensor().NumElements()
		dst := buf[pos : pos+cnt]
		if p.V.Grad != nil {
			copy(dst, p.V.Grad.Contiguous().Data())
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
		pos += cnt
	}
	return buf
}

// UnflattenGrads scatters vec back into the parameters' gradients,
// replacing their contents (gradients are allocated if absent).
func UnflattenGrads(params []*nn.Parameter, vec []float64) {
	pos := 0
	for _, p := range params {
		cnt := p.Tensor().NumElements()
		if p.V.Grad == nil || !p.V.Grad.IsContiguous() {
			p.V.Grad = tensor.New(p.Tensor().Shape()...)
		}
		copy(p.V.Grad.Data(), vec[pos:pos+cnt])
		pos += cnt
	}
}

// ParameterGradBytes returns the total fp64 gradient byte volume of params —
// the upper bound of the AutotuneCandidates ladder.
func ParameterGradBytes(params []*nn.Parameter) int64 {
	var n int64
	for _, p := range params {
		n += int64(p.Tensor().NumElements()) * 8
	}
	return n
}

// GradBucket groups parameters whose gradients travel as one AllReduce.
type GradBucket struct {
	Params []*nn.Parameter
	Elems  int
}

// BucketGrads partitions params into contiguous size-capped buckets in
// reverse parameter order — the approximate order gradients become final
// during backward (output-side layers first), so early buckets fill early.
// A single parameter larger than the cap gets a bucket of its own.
func BucketGrads(params []*nn.Parameter, bucketBytes int64) []GradBucket {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	capElems := int(bucketBytes / 8)
	if capElems < 1 {
		capElems = 1
	}
	var out []GradBucket
	var cur GradBucket
	for i := len(params) - 1; i >= 0; i-- {
		n := params[i].Tensor().NumElements()
		if len(cur.Params) > 0 && cur.Elems+n > capElems {
			out = append(out, cur)
			cur = GradBucket{}
		}
		cur.Params = append(cur.Params, params[i])
		cur.Elems += n
	}
	if len(cur.Params) > 0 {
		out = append(out, cur)
	}
	return out
}

// CodecMap holds per-parameter fp16 error-feedback codecs. It is owned by
// the trainer and shared across syncer rebuilds, so quantization residuals
// survive autotuner re-bucketing (keyed per parameter, the residual is
// layout-independent). A nil map disables compression.
type CodecMap map[*autograd.Variable]*cluster.FP16Codec

// LaunchFunc issues one bucket's clock-deferred gradient collective over the
// already-flattened (and, under fp16, wire-quantized) vector, returning the
// modeled cost. wireBytes is the modeled on-the-wire size (compressed under
// fp16). Implementations must leave virtual clocks untouched and must issue
// matching collectives in the same order on every participating worker.
type LaunchFunc func(vec []float64, wireBytes int64) time.Duration

// OverlapSyncer drives one worker's overlapped gradient exchange for one
// step: the autograd timed gradient-ready hook counts down each bucket and
// launches its (clock-deferred) collective mid-backward through the
// pluggable LaunchFunc, recording the measured backward offset of the
// launch; after backward the syncer scatters the reduced buckets back and
// converts the measured launch timeline into the overlapped virtual-time
// charge. shard.Train plugs in the grid's two-stage (replica-sum then
// shard-mean) collective, which on a 1xR grid, whose replica groups have one
// member, is the world ring; ddp.GradAlgoHierarchical plugs in the
// node-aware world AllReduce instead.
type OverlapSyncer struct {
	launch  LaunchFunc
	fp16    bool
	buckets []GradBucket
	// bucketOf maps a parameter's leaf variable to its bucket index.
	bucketOf   map[*autograd.Variable]int
	totalElems int

	remaining []int       // per bucket: params whose gradients are not yet final
	launched  []bool      // per bucket: collective already issued this step
	flat      [][]float64 // per bucket: flatten/exchange scratch
	codecOf   CodecMap    // per-parameter fp16 error-feedback state (see CodecMap)

	order        []int               // bucket indices in launch order
	events       []cluster.CommEvent // per launch: modeled cost (ReadyAt filled by Timeline)
	readyFrac    []float64           // per launch: cumulative-elements share (modeled fallback)
	readyElapsed []time.Duration     // per launch: measured backward offset
	wire         []int64             // per launch: wire bytes shipped
	cumElems     int
	commWall     time.Duration // real time spent blocked inside collective launches
	totalCost    time.Duration // sum of modeled bucket costs this step
	stepBytes    int64         // wire bytes shipped this step
	stepSaved    int64         // wire bytes saved by fp16 this step
}

// NewOverlapSyncer builds a syncer over the given buckets and collective.
// codecOf non-nil enables fp16 wire compression with error feedback.
func NewOverlapSyncer(buckets []GradBucket, launch LaunchFunc, codecOf CodecMap) *OverlapSyncer {
	s := &OverlapSyncer{
		launch:    launch,
		fp16:      codecOf != nil,
		buckets:   buckets,
		bucketOf:  make(map[*autograd.Variable]int),
		remaining: make([]int, len(buckets)),
		launched:  make([]bool, len(buckets)),
		flat:      make([][]float64, len(buckets)),
		codecOf:   codecOf,
	}
	for bi, b := range buckets {
		for _, p := range b.Params {
			s.bucketOf[p.V] = bi
			if codecOf != nil && codecOf[p.V] == nil {
				codecOf[p.V] = &cluster.FP16Codec{}
			}
		}
		s.totalElems += b.Elems
	}
	return s
}

// Reset prepares the syncer for the next step.
func (s *OverlapSyncer) Reset() {
	for bi := range s.buckets {
		s.remaining[bi] = len(s.buckets[bi].Params)
		s.launched[bi] = false
	}
	s.order = s.order[:0]
	s.events = s.events[:0]
	s.readyFrac = s.readyFrac[:0]
	s.readyElapsed = s.readyElapsed[:0]
	s.wire = s.wire[:0]
	s.cumElems = 0
	s.commWall = 0
	s.totalCost = 0
	s.stepBytes = 0
	s.stepSaved = 0
}

// OnGradReady is the autograd.TimedGradHook: count down the leaf's bucket
// and launch it once every member gradient is final, stamping the launch
// with the measured backward offset. The raw elapsed includes wall time
// spent blocked inside earlier buckets' exchanges (waiting for peers);
// subtracting the commWall accumulated so far leaves the pure backward-
// compute offset, which is what the modeled timeline rescales. Launch order
// is a deterministic function of the (identical) replica graphs, so all
// workers issue matching collectives.
func (s *OverlapSyncer) OnGradReady(leaf *autograd.Variable, elapsed time.Duration) {
	bi, ok := s.bucketOf[leaf]
	if !ok {
		return
	}
	s.remaining[bi]--
	if s.remaining[bi] == 0 {
		elapsed -= s.commWall
		if elapsed < 0 {
			elapsed = 0
		}
		s.launchBucket(bi, elapsed)
	}
}

// launchBucket flattens bucket bi (quantizing it to the fp16 wire values
// first when compression is on) and issues its clock-deferred collective via
// the launch function. elapsed is the measured backward offset of the
// launch.
func (s *OverlapSyncer) launchBucket(bi int, elapsed time.Duration) {
	b := s.buckets[bi]
	s.flat[bi] = FlattenGrads(b.Params, s.flat[bi])
	vec := s.flat[bi]
	wire := int64(len(vec)) * 8
	if s.fp16 {
		// Quantize per parameter, each through its own persistent codec, so
		// error-feedback residuals survive re-bucketing.
		pos := 0
		for _, p := range b.Params {
			n := p.Tensor().NumElements()
			s.codecOf[p.V].ApplyInPlace(vec[pos : pos+n])
			pos += n
		}
		compressed := cluster.FP16WireBytes(len(vec))
		s.stepSaved += wire - compressed
		wire = compressed
	}
	t0 := time.Now()
	cost := s.launch(vec, wire)
	s.commWall += time.Since(t0)
	s.launched[bi] = true
	s.cumElems += b.Elems
	s.order = append(s.order, bi)
	s.events = append(s.events, cluster.CommEvent{Cost: cost})
	s.readyFrac = append(s.readyFrac, float64(s.cumElems)/float64(s.totalElems))
	s.readyElapsed = append(s.readyElapsed, elapsed)
	s.wire = append(s.wire, wire)
	s.totalCost += cost
	s.stepBytes += wire
}

// Flush launches every bucket the backward pass never completed (parameters
// outside the step's graph contribute zero gradients) with a ready offset of
// bwdWall (the end of backward), in bucket order, and scatters all reduced
// buckets back into the parameter gradients.
func (s *OverlapSyncer) Flush(bwdWall time.Duration) {
	for bi := range s.buckets {
		if !s.launched[bi] {
			s.launchBucket(bi, bwdWall)
		}
	}
	for bi, b := range s.buckets {
		UnflattenGrads(b.Params, s.flat[bi])
	}
}

// splitCompute divides the step's modeled compute into forward and backward
// spans using the measured wall-clock split, falling back to the 1:2 model
// when the timers saw nothing.
func splitCompute(compute, fwdWall, bwdWall time.Duration) (fwd, bwd time.Duration) {
	frac := 1 - backwardShare
	if fwdWall > 0 && bwdWall > 0 {
		frac = float64(fwdWall) / float64(fwdWall+bwdWall)
	}
	fwd = time.Duration(frac * float64(compute))
	return fwd, compute - fwd
}

// Timeline stamps each launch's ReadyAt onto the step timeline and returns
// the comm events in launch order: the step's compute is split into forward
// and backward spans by the measured wall-clock ratio, and bucket i becomes
// ready at its measured backward offset rescaled onto the modeled backward
// span. Passing fwdWall == bwdWall == 0 selects the structural timeline
// (cumulative-elements ready fractions, 1:2 split): fully-modeled runs use
// it so their virtual clocks are machine-independent and reproducible. The
// returned slice aliases the syncer's state and is valid until the next
// Reset.
func (s *OverlapSyncer) Timeline(compute, fwdWall, bwdWall time.Duration) []cluster.CommEvent {
	fwd, bwd := splitCompute(compute, fwdWall, bwdWall)
	for i := range s.events {
		frac := s.readyFrac[i]
		if bwdWall > 0 {
			frac = float64(s.readyElapsed[i]) / float64(bwdWall)
			if frac > 1 {
				frac = 1
			}
		}
		s.events[i].ReadyAt = fwd + time.Duration(frac*float64(bwd))
	}
	return s.events
}

// ModeledFinish is the step's overlapped duration on the structural
// timeline (cumulative-elements ready fractions, 1:2 forward/backward
// split): the collectives serialize on one channel, each starting no
// earlier than its ReadyAt, and the step ends at max(compute, last comm
// finish) — a measurement-free figure of merit the bucket autotuner can
// score reproducibly.
func (s *OverlapSyncer) ModeledFinish(compute time.Duration) time.Duration {
	fwd := time.Duration((1 - backwardShare) * float64(compute))
	bwd := compute - fwd
	events := make([]cluster.CommEvent, len(s.events))
	for i := range events {
		events[i] = cluster.CommEvent{
			ReadyAt: fwd + time.Duration(s.readyFrac[i]*float64(bwd)),
			Cost:    s.events[i].Cost,
		}
	}
	step, _ := cluster.Overlap(compute, events, nil)
	return step
}

// CommWall returns the real wall time this step spent blocked inside
// collective launches (communication, not compute — measured step timing
// subtracts it).
func (s *OverlapSyncer) CommWall() time.Duration { return s.commWall }

// TotalCost returns the sum of the step's modeled bucket collective costs.
func (s *OverlapSyncer) TotalCost() time.Duration { return s.totalCost }

// StepBytes returns the wire bytes shipped this step (compressed sizes under
// fp16); StepSaved returns the bytes fp16 compression avoided.
func (s *OverlapSyncer) StepBytes() int64 { return s.stepBytes }

// StepSaved returns the wire bytes fp16 compression saved this step.
func (s *OverlapSyncer) StepSaved() int64 { return s.stepSaved }

// NumBuckets returns the syncer's bucket count.
func (s *OverlapSyncer) NumBuckets() int { return len(s.buckets) }

// LaunchBuckets returns the step's bucket indices in launch order — aligned
// with Timeline's events, it labels the trace's per-bucket comm spans. The
// slice aliases syncer state and is valid until the next Reset.
func (s *OverlapSyncer) LaunchBuckets() []int { return s.order }

// LaunchWire returns the wire bytes shipped per launch, aligned with
// LaunchBuckets. The slice aliases syncer state and is valid until the next
// Reset.
func (s *OverlapSyncer) LaunchWire() []int64 { return s.wire }

// NewSampler builds one worker's deterministic batch sampler for the
// shuffling strategy (shared with the spatial-sharding trainer, whose
// replicas sample exactly like DDP workers).
func NewSampler(kind SamplerKind, train []int, batchSize, workers, rank int, seed uint64) batching.BatchSampler {
	switch kind {
	case LocalShuffle:
		return batching.NewLocalShuffler(train, batchSize, workers, rank, seed)
	case BatchShuffle:
		return batching.NewBatchShuffler(train, batchSize, workers, rank, seed)
	default:
		return batching.NewGlobalShuffler(train, batchSize, workers, rank, seed)
	}
}

// ReduceWeighted AllReduces a weighted Running accumulator into the global
// weighted mean (shared with the spatial-sharding trainer).
func ReduceWeighted(w *cluster.Worker, acc metrics.Running) float64 {
	sum := w.AllReduceScalar(acc.Mean()*float64(acc.Count()), cluster.OpSum)
	count := w.AllReduceScalar(float64(acc.Count()), cluster.OpSum)
	if count == 0 {
		return 0
	}
	return sum / count
}
