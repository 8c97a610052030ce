package shard

import (
	"fmt"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/cluster"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// Stats accumulates one worker's halo traffic: wire bytes shipped, the
// modeled exchange time charged to the virtual clock, the portion of it the
// interior-first overlap hid under compute, and the real wall time spent
// blocked inside exchanges (Wall — that is communication, not compute, so
// measured-mode step timing subtracts it). Reports surface the modeled
// figures, keeping the halo overhead separable from gradient communication.
//
// Under the overlapped schedule Stats also collects the step's exchange
// launches as comm events: the trainer stamps their ready offsets onto the
// step timeline and charges max(compute, pipelined comm) once per step via
// cluster.Overlap, instead of exposing every exchange's full cost.
type Stats struct {
	Bytes int64
	// Time is the total modeled halo-exchange cost (exposed + hidden).
	Time time.Duration
	// Hidden is the portion of Time the overlapped schedule hid under the
	// step's compute (zero for the blocking schedule).
	Hidden time.Duration
	Wall   time.Duration
	// PinFirstLaunch stamps each step's first overlapped exchange at ReadyAt
	// zero on measured timelines: with the prefetch pipeline the batch's
	// windows are resident before the step starts, so the first forward halo
	// exchange launches the moment the step begins instead of at its
	// measured compute offset. Structural timelines already stamp the first
	// launch at zero, so fully-modeled runs are unaffected.
	PinFirstLaunch bool
	// Trace, when set, receives halo spans (blocking exchanges record them
	// inline at charge time; the overlapped trainer renders the resolved
	// step schedule itself from the per-event labels and bytes below).
	Trace *trace.Worker
	// Channel is the modeled comm channel this worker's halo traffic rides
	// (the replica group's channel); blocking charges attribute their
	// exposure to it in ChannelExposed.
	Channel cluster.Channel
	// ChannelExposed accumulates per-channel exposed halo time charged
	// inline: blocking exchanges and the evaluation settles.
	ChannelExposed [cluster.NumChannels]time.Duration

	// Per-step overlap state (reset by BeginStep).
	stepStart   time.Time
	stepBlocked time.Duration
	events      []cluster.CommEvent
	offsets     []time.Duration
	// Per-event trace annotations, parallel to events (populated only when
	// Trace is set; the overlapped trainer labels its schedule spans from
	// them).
	stepLabels []string
	stepBytes  []int64
}

// BeginStep resets the step-scoped overlap timeline.
func (s *Stats) BeginStep() {
	s.stepStart = time.Now()
	s.stepBlocked = 0
	s.events = s.events[:0]
	s.offsets = s.offsets[:0]
	s.stepLabels = s.stepLabels[:0]
	s.stepBytes = s.stepBytes[:0]
}

// launchOffset returns the measured offset of an exchange launch into the
// step's compute, excluding wall time already spent blocked in exchanges
// (that is communication, not compute, mirroring ddp's bucket timeline).
func (s *Stats) launchOffset() time.Duration {
	off := time.Since(s.stepStart) - s.stepBlocked
	if off < 0 {
		off = 0
	}
	return off
}

// record books one completed overlapped exchange: wire bytes, modeled cost,
// the measured launch offset, and (when traced) the span label.
func (s *Stats) record(bytes int64, cost time.Duration, offset time.Duration, label string) {
	s.Bytes += bytes
	s.Time += cost
	s.events = append(s.events, cluster.CommEvent{Cost: cost})
	s.offsets = append(s.offsets, offset)
	if s.Trace != nil {
		s.stepLabels = append(s.stepLabels, label)
		s.stepBytes = append(s.stepBytes, bytes)
	}
}

// StepEvents stamps each of the step's exchange launches with its ReadyAt on
// the [0, compute) timeline and returns the events in launch order. The
// structural timeline spaces the launches evenly (fully-modeled runs use it
// so virtual clocks are machine-independent); the measured timeline uses the
// recorded launch offsets capped at compute. The slice aliases Stats state
// and is valid until the next BeginStep.
func (s *Stats) StepEvents(compute time.Duration, structural bool) []cluster.CommEvent {
	n := len(s.events)
	for i := range s.events {
		if structural {
			s.events[i].ReadyAt = time.Duration(float64(compute) * float64(i) / float64(n))
		} else {
			off := s.offsets[i]
			if s.PinFirstLaunch && i == 0 {
				off = 0
			}
			if off > compute {
				off = compute
			}
			s.events[i].ReadyAt = off
		}
	}
	return s.events
}

// StepCost returns the summed modeled cost of the step's recorded events.
func (s *Stats) StepCost() time.Duration {
	var c time.Duration
	for _, e := range s.events {
		c += e.Cost
	}
	return c
}

// Exchanger moves halo rows between the shards of one replica group over
// the cluster's neighbour collective. It implements autograd.HaloExchange;
// one Exchanger serves one (worker, support) pair. Every schedule runs the
// same split-phase exchange, and the Finish halves are the only code that
// reads which one is in force: the overlapped schedule records the exchange
// as a step comm event (the trainer charges the overlapped timeline once per
// step), the blocking one charges its full cost to the worker's clock
// inline. Either way the cost is priced via the topology's intra/inter links
// and accumulated into the shared Stats.
type Exchanger struct {
	w       *cluster.Worker
	group   []int // replica-group global ranks, indexed by shard
	shard   int
	plan    *ExchangePlan
	topo    cluster.Topology
	stats   *Stats
	overlap bool

	// In-flight split-phase state (one exchange at a time per Exchanger).
	handle    *cluster.NeighborHandle
	inflightF int
	offset    time.Duration
	sendBytes int64
}

// NewExchanger binds an exchange plan to a worker within its replica group.
// overlap selects the interior-first schedule's pricing: exchanges ride the
// step's overlap timeline instead of being charged inline.
func NewExchanger(w *cluster.Worker, group []int, shardIdx int, plan *ExchangePlan, topo cluster.Topology, stats *Stats, overlap bool) *Exchanger {
	return &Exchanger{w: w, group: group, shard: shardIdx, plan: plan, topo: topo, stats: stats, overlap: overlap}
}

// NumHalo implements autograd.HaloExchange.
func (e *Exchanger) NumHalo() int { return e.plan.NumHalo }

// assembleHalo scatters the received payloads into the halo block.
func (e *Exchanger) assembleHalo(recvs map[int][]float64, f int) *tensor.Tensor {
	halo := tensor.New(e.plan.NumHalo, f)
	hd := halo.Data()
	for q := range e.group {
		payload := recvs[e.group[q]]
		for i, pos := range e.plan.RecvPos[q] {
			copy(hd[pos*f:(pos+1)*f], payload[i*f:(i+1)*f])
		}
	}
	return halo
}

// Gather ships the owned rows peers need and collects this shard's halo rows
// [NumHalo, F]: GatherStart then GatherFinish, with nothing in between.
func (e *Exchanger) Gather(local *tensor.Tensor) *tensor.Tensor {
	e.GatherStart(local)
	return e.GatherFinish()
}

// GatherStart implements autograd.HaloExchange: issue the forward exchange's
// sends without blocking.
func (e *Exchanger) GatherStart(local *tensor.Tensor) {
	e.start(e.routes(local, e.plan.SendTo, e.plan.RecvPos))
}

// GatherFinish implements autograd.HaloExchange: collect the halo rows
// launched by GatherStart.
func (e *Exchanger) GatherFinish() *tensor.Tensor {
	return e.assembleHalo(e.finish("halo.gather"), e.inflightF)
}

// sumOwn accumulates the received peer contributions into the own-row block.
func (e *Exchanger) sumOwn(recvs map[int][]float64, f int) *tensor.Tensor {
	out := tensor.New(e.plan.NumOwn, f)
	od := out.Data()
	for q := range e.group {
		payload := recvs[e.group[q]]
		for i, r := range e.plan.SendTo[q] {
			dst := od[r*f : (r+1)*f]
			src := payload[i*f : (i+1)*f]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	return out
}

// ScatterAddStart implements autograd.HaloExchange: issue the reverse
// exchange's sends without blocking.
func (e *Exchanger) ScatterAddStart(haloGrad *tensor.Tensor) {
	e.start(e.routes(haloGrad, e.plan.RecvPos, e.plan.SendTo))
}

// ScatterAddFinish implements autograd.HaloExchange: collect and sum the
// peer contributions launched by ScatterAddStart.
func (e *Exchanger) ScatterAddFinish() *tensor.Tensor {
	return e.sumOwn(e.finish("halo.scatter"), e.inflightF)
}

// start issues one exchange's sends and remembers what its finish prices.
func (e *Exchanger) start(sends []cluster.NeighborSend, recvFrom, recvLens []int, f int) {
	if e.handle != nil {
		panic("shard: halo exchange already in flight (Start without matching Finish)")
	}
	e.inflightF = f
	e.sendBytes = payloadBytes(sends)
	e.offset = e.stats.launchOffset()
	e.handle = e.w.NeighborAllToAllVStart(sends, recvFrom, recvLens, e.topo)
}

// finish blocks for the in-flight exchange's payloads and prices it by the
// schedule: recorded on the step timeline under overlap, charged inline
// when blocking.
func (e *Exchanger) finish(label string) map[int][]float64 {
	t0 := time.Now()
	recvs, cost := e.handle.Finish()
	blocked := time.Since(t0)
	e.stats.Wall += blocked
	e.stats.stepBlocked += blocked
	e.handle = nil
	if e.overlap {
		e.stats.record(e.sendBytes, cost, e.offset, label)
	} else {
		e.charge(e.sendBytes, cost)
	}
	return recvs
}

// routes assembles one exchange from the rows of t [*, F]: rows outIdx[q]
// ship to shard q, and inIdx[q] sizes what q ships back. The reverse
// exchange swaps the two: what the gather received, the scatter sends.
func (e *Exchanger) routes(t *tensor.Tensor, outIdx, inIdx [][]int) (sends []cluster.NeighborSend, recvFrom, recvLens []int, f int) {
	f = t.Dim(1)
	d := t.Contiguous().Data()
	for q := range e.group {
		if q == e.shard {
			continue
		}
		if rows := outIdx[q]; len(rows) > 0 {
			payload := make([]float64, len(rows)*f)
			for i, r := range rows {
				copy(payload[i*f:(i+1)*f], d[r*f:(r+1)*f])
			}
			sends = append(sends, cluster.NeighborSend{To: e.group[q], Payload: payload})
		}
		if pos := inIdx[q]; len(pos) > 0 {
			recvFrom = append(recvFrom, e.group[q])
			recvLens = append(recvLens, len(pos)*f)
		}
	}
	return sends, recvFrom, recvLens, f
}

func payloadBytes(sends []cluster.NeighborSend) int64 {
	var b int64
	for _, s := range sends {
		b += int64(len(s.Payload)) * 8
	}
	return b
}

// commStream maps a modeled comm channel onto its trace export lane.
func commStream(ch cluster.Channel) int {
	if ch == cluster.ChannelIntra {
		return trace.StreamCommIntra
	}
	return trace.StreamCommInter
}

// charge records a blocking exchange against the stats and the virtual
// clock: the full cost is exposed inline, so the trace gets the halo span
// and its exposed twin at the charge point.
func (e *Exchanger) charge(bytes int64, cost time.Duration) {
	e.stats.Bytes += bytes
	e.stats.Time += cost
	e.stats.ChannelExposed[e.stats.Channel] += cost
	if tw := e.stats.Trace; tw != nil {
		at := e.w.VirtualTime()
		tw.Span(trace.KindHalo, "halo.blocking", commStream(e.stats.Channel), at, cost, bytes)
		tw.Span(trace.KindExposed, "halo.blocking", trace.StreamExposed, at, cost, 0)
	}
	e.w.AdvanceTime(cost)
}

// propagator adapts a sharded support block + exchanger to nn.Propagator.
// It is a pointer type so an elastic repartition can rebind the block and
// exchanger in place while the model keeps holding the same Propagator
// values.
type propagator struct {
	block *sparse.ShardCSR
	ex    *Exchanger
}

// Nodes implements nn.Propagator.
func (p *propagator) Nodes() int { return p.block.NumOwn() }

// Propagate implements nn.Propagator.
func (p *propagator) Propagate(x *autograd.Variable) *autograd.Variable {
	return autograd.ShardSpMM(p.block, p.ex, x)
}

// Propagators builds the worker-bound nn.Propagators for one shard: one per
// support, all sharing the worker's halo Stats. overlap selects the
// interior-first schedule's pricing (see NewExchanger).
func Propagators(w *cluster.Worker, group []int, sp *ShardPlan, topo cluster.Topology, stats *Stats, overlap bool) []nn.Propagator {
	props := make([]nn.Propagator, len(sp.Supports))
	for si, block := range sp.Supports {
		props[si] = &propagator{
			block: block,
			ex:    NewExchanger(w, group, sp.Shard, sp.Exchanges[si], topo, stats, overlap),
		}
	}
	return props
}

// Rebind points propagators previously built by Propagators at a new
// ShardPlan after an elastic repartition: each gets the new plan's support
// block and a fresh Exchanger over the new halo routing (same worker, group,
// topology, Stats and schedule), while the model's references to the
// Propagator values stay valid. The support count must match the original
// plan's.
func Rebind(props []nn.Propagator, sp *ShardPlan) error {
	if len(props) != len(sp.Supports) {
		return fmt.Errorf("shard: rebind over %d propagators, plan has %d supports", len(props), len(sp.Supports))
	}
	for si, block := range sp.Supports {
		p, ok := props[si].(*propagator)
		if !ok {
			return fmt.Errorf("shard: propagator %d is %T, not rebindable", si, props[si])
		}
		ex := p.ex
		p.block = block
		p.ex = NewExchanger(ex.w, ex.group, sp.Shard, sp.Exchanges[si], ex.topo, ex.stats, ex.overlap)
	}
	return nil
}
