// Package cluster is the reproduction's stand-in for Dask.distributed on
// Polaris: a set of worker goroutines with collective operations and a
// virtual-time network model.
//
// Two layers coexist deliberately:
//
//   - Real data movement. AllReduce really exchanges gradient chunks between
//     worker goroutines (ring algorithm over channels), so distributed
//     training is numerically genuine — replicas stay bitwise identical.
//   - Virtual time. Every compute or communication event also advances a
//     per-worker virtual clock using the Polaris cost model (Slingshot
//     bandwidth/latency, Dask dispatch overhead). Collectives synchronize
//     clocks to the slowest participant, exactly as a real bulk-synchronous
//     DDP step would. Paper-scale runtimes (128 GPUs, full PeMS) are read
//     off these clocks.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"pgti/internal/fault"
)

// NetworkModel captures the interconnect cost parameters.
type NetworkModel struct {
	// Bandwidth is effective point-to-point bytes/second.
	Bandwidth float64
	// Latency is the per-message wire latency.
	Latency time.Duration
	// DispatchOverhead is the per-request software overhead of the data
	// service (Dask scheduler + serialization), dominating small requests.
	DispatchOverhead time.Duration
}

// SlingshotModel returns the cost model for Polaris' HPE Slingshot-11
// fabric fronted by a Dask data service: ~20 GB/s effective per-pair
// bandwidth, 2 us wire latency, and ~1 ms software dispatch per request.
func SlingshotModel() NetworkModel {
	return NetworkModel{
		Bandwidth:        20e9,
		Latency:          2 * time.Microsecond,
		DispatchOverhead: 1 * time.Millisecond,
	}
}

// TransferTime returns the modeled cost of moving bytes in one message.
func (n NetworkModel) TransferTime(bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	sec := float64(bytes) / n.Bandwidth
	return n.Latency + time.Duration(sec*float64(time.Second))
}

// FetchTime returns the modeled cost of an on-demand data fetch through the
// data service (dispatch + transfer) — the per-batch path of baseline DDP.
func (n NetworkModel) FetchTime(bytes int64) time.Duration {
	return n.DispatchOverhead + n.TransferTime(bytes)
}

// RingAllReduceTime returns the modeled cost of a bandwidth-optimal ring
// all-reduce of `bytes` across p workers: 2(p-1) phases, each moving a
// 1/p-sized chunk between neighbours.
func (n NetworkModel) RingAllReduceTime(bytes int64, p int) time.Duration {
	if p <= 1 {
		return 0
	}
	chunk := bytes / int64(p)
	per := n.TransferTime(chunk)
	return time.Duration(2*(p-1)) * per
}

// NaiveAllReduceTime returns the cost of the gather-at-root + broadcast
// alternative (the ablation baseline): the root serializes 2(p-1) full-size
// messages.
func (n NetworkModel) NaiveAllReduceTime(bytes int64, p int) time.Duration {
	if p <= 1 {
		return 0
	}
	return time.Duration(2*(p-1)) * n.TransferTime(bytes)
}

// Config configures a simulated cluster.
type Config struct {
	Workers int
	Net     NetworkModel
	// IntraNet is the intra-node interconnect used by hierarchical
	// collectives (default NVLink-class, see NVLinkModel). Net remains the
	// inter-node fabric.
	IntraNet NetworkModel
	// Faults optionally arms a deterministic fault schedule (see
	// internal/fault and fault.go in this package). Every worker consults
	// the same plan, so crashes, stragglers, and degraded links inject
	// identically on every rank. Nil means no faults; an armed-but-empty
	// plan is bitwise identical to nil.
	Faults *fault.Plan
}

// Cluster coordinates a fixed set of workers.
type Cluster struct {
	cfg Config
	// ringIn[r] carries chunks from worker r-1 to worker r.
	ringIn  []chan []float64
	barrier *timeBarrier

	// Point-to-point fabric (see collectives.go).
	p2pOnce   sync.Once
	mailboxes []chan message
}

// New constructs a cluster with cfg.Workers workers.
func New(cfg Config) (*Cluster, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 worker, got %d", cfg.Workers)
	}
	if cfg.Net.Bandwidth <= 0 {
		cfg.Net = SlingshotModel()
	}
	if cfg.IntraNet.Bandwidth <= 0 {
		cfg.IntraNet = NVLinkModel()
	}
	c := &Cluster{
		cfg:     cfg,
		ringIn:  make([]chan []float64, cfg.Workers),
		barrier: newTimeBarrier(cfg.Workers),
	}
	for i := range c.ringIn {
		c.ringIn[i] = make(chan []float64, 1)
	}
	return c, nil
}

// Net returns the inter-node network model.
func (c *Cluster) Net() NetworkModel { return c.cfg.Net }

// Run executes fn concurrently on every worker and waits for completion,
// returning the first error. Virtual clocks start at zero.
func (c *Cluster) Run(fn func(w *Worker) error) error {
	errs := make([]error, c.cfg.Workers)
	var wg sync.WaitGroup
	for r := 0; r < c.cfg.Workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w := &Worker{cluster: c, rank: rank}
			errs[rank] = fn(w)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Worker is one participant's handle, valid inside Cluster.Run.
type Worker struct {
	cluster *Cluster
	rank    int
	vt      time.Duration // virtual clock
	hierSeq int           // per-worker hierarchical collective sequence
	pending []message     // received but not yet consumed p2p messages
}

// Rank returns this worker's 0-based rank.
func (w *Worker) Rank() int { return w.rank }

// Size returns the number of workers.
func (w *Worker) Size() int { return w.cluster.cfg.Workers }

// VirtualTime returns the worker's current virtual clock.
func (w *Worker) VirtualTime() time.Duration { return w.vt }

// AdvanceTime adds a locally-computed duration (e.g. modeled GPU compute)
// to the worker's virtual clock.
func (w *Worker) AdvanceTime(d time.Duration) {
	if d > 0 {
		w.vt += d
	}
}

// FetchRemote models an on-demand data fetch of `bytes` through the data
// service, advancing only this worker's clock (fetches are asynchronous to
// other workers).
func (w *Worker) FetchRemote(bytes int64) {
	w.vt += w.commScaled(w.cluster.cfg.Net.FetchTime(bytes))
}

// Barrier synchronizes all workers, advancing every clock to the maximum.
func (w *Worker) Barrier() {
	w.vt, _ = w.cluster.barrier.wait(w.rank, w.vt, 0, 0, OpSum)
}

// synchronized runs a collective: clocks align to the slowest participant
// plus the modeled collective cost (inflated by any active link-degrade
// window; the barrier takes the max across ranks, so clocks stay agreed
// even when a window boundary splits the participants).
func (w *Worker) synchronized(cost time.Duration) {
	w.vt, _ = w.cluster.barrier.wait(w.rank, w.vt, w.commScaled(cost), 0, OpSum)
}

// RingAllReduceMean averages vec element-wise across all workers, in place,
// using a bandwidth-optimal ring (reduce-scatter then all-gather) with real
// chunk exchange over channels. All workers must call it with equal-length
// vectors. Virtual clocks advance by the modeled ring cost and synchronize.
func (w *Worker) RingAllReduceMean(vec []float64) {
	w.RingAllReduceMeanSized(vec, int64(len(vec))*8)
}

// RingAllReduceMeanSized is RingAllReduceMean with an explicit modeled wire
// size, for payloads that ship compressed (fp16) while the in-memory
// exchange stays float64.
func (w *Worker) RingAllReduceMeanSized(vec []float64, wireBytes int64) {
	w.ringExchange(vec)
	w.synchronized(w.cluster.cfg.Net.RingAllReduceTime(wireBytes, w.Size()))
}

// AsyncRingAllReduceMeanSized performs the same in-place ring averaging as
// RingAllReduceMeanSized but leaves every virtual clock untouched, returning
// the modeled cost of wireBytes on the ring instead: the bucketed gradient
// schedules launch these mid-backward and charge the overlapped timeline
// afterwards. All workers must issue matching calls in the same order.
func (w *Worker) AsyncRingAllReduceMeanSized(vec []float64, wireBytes int64) time.Duration {
	w.ringExchange(vec)
	return w.commScaled(w.cluster.cfg.Net.RingAllReduceTime(wireBytes, w.Size()))
}

// ringExchange is the pure data-movement ring all-reduce (reduce-scatter
// then all-gather, then the 1/p mean scaling). It never touches clocks.
func (w *Worker) ringExchange(vec []float64) {
	p := w.Size()
	if p == 1 {
		return
	}
	c := w.cluster
	right := c.ringIn[(w.rank+1)%p] // we send into our right neighbour's inbox
	left := c.ringIn[w.rank]        // we receive from our own inbox

	// Chunk boundaries (chunk j = [bounds[j], bounds[j+1])).
	bounds := make([]int, p+1)
	for j := 0; j <= p; j++ {
		bounds[j] = j * len(vec) / p
	}
	chunk := func(j int) []float64 { return vec[bounds[j]:bounds[j+1]] }

	// Reduce-scatter: after p-1 steps, worker r owns the fully-reduced
	// chunk (r+1) mod p.
	for step := 0; step < p-1; step++ {
		sendIdx := mod(w.rank-step, p)
		recvIdx := mod(w.rank-step-1, p)
		out := make([]float64, len(chunk(sendIdx)))
		copy(out, chunk(sendIdx))
		right <- out
		in := <-left
		dst := chunk(recvIdx)
		for i := range dst {
			dst[i] += in[i]
		}
	}
	// All-gather: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		sendIdx := mod(w.rank-step+1, p)
		recvIdx := mod(w.rank-step, p)
		out := make([]float64, len(chunk(sendIdx)))
		copy(out, chunk(sendIdx))
		right <- out
		in := <-left
		copy(chunk(recvIdx), in)
	}
	inv := 1 / float64(p)
	for i := range vec {
		vec[i] *= inv
	}
}

// Channel identifies which physical communication engine an overlapped
// CommEvent occupies. Events on the same channel serialize back-to-back;
// events on different channels pipeline independently — a node's NVLink
// copy engines and its NIC genuinely run concurrently, so a replica-group
// halo exchange staying on-node does not queue behind an inter-node
// gradient bucket.
type Channel int

const (
	// ChannelInter is the inter-node fabric NIC. It is the zero value, so
	// single-channel callers that never set Channel keep the old
	// serialize-everything semantics.
	ChannelInter Channel = iota
	// ChannelIntra is the intra-node NVLink-class engine.
	ChannelIntra
	numChannels
)

// NumChannels is the number of modeled communication engines — the size of
// per-channel accumulator arrays callers keep alongside the overlap
// timeline.
const NumChannels = int(numChannels)

// normChannel coerces out-of-range channels onto the fabric, matching the
// forgiving behaviour of OverlapFinishChannels.
func normChannel(c Channel) Channel {
	if c < 0 || c >= numChannels {
		return ChannelInter
	}
	return c
}

// CommEvent is one communication launch inside an overlapped step: a
// collective of modeled duration Cost whose inputs become available ReadyAt
// into the step's compute, occupying the engine named by Channel.
type CommEvent struct {
	ReadyAt time.Duration
	Cost    time.Duration
	Channel Channel
}

// OverlapFinish returns the completion time of a step whose compute spans
// [0, compute) while the comm events execute back-to-back on one
// communication channel, each starting no earlier than its ReadyAt:
//
//	start_i  = max(finish_{i-1}, ReadyAt_i)
//	finish_i = start_i + Cost_i
//	step     = max(compute, finish_last)
//
// This is the max(compute, comm) overlap charge — communication hidden
// under remaining compute is free; only the exposed tail extends the step.
func OverlapFinish(compute time.Duration, events []CommEvent) time.Duration {
	var finish time.Duration
	for _, e := range events {
		start := finish
		if e.ReadyAt > start {
			start = e.ReadyAt
		}
		finish = start + e.Cost
	}
	if compute > finish {
		return compute
	}
	return finish
}

// OverlapFinishChannels is OverlapFinish with per-channel serialization:
// each event occupies its Channel's engine back-to-back in slice order
// (start_i = max(channel_finish, ReadyAt_i)), different channels proceed
// independently, and the step completes when compute and every channel's
// last event have finished. With all events on one channel it degenerates
// exactly to OverlapFinish — which is why flat topologies, whose collectives
// all ride the fabric, reproduce the single-channel timelines bitwise.
func OverlapFinishChannels(compute time.Duration, events []CommEvent) time.Duration {
	var finish [numChannels]time.Duration
	step := compute
	for _, e := range events {
		c := normChannel(e.Channel)
		start := finish[c]
		if e.ReadyAt > start {
			start = e.ReadyAt
		}
		finish[c] = start + e.Cost
		if finish[c] > step {
			step = finish[c]
		}
	}
	return step
}

// CommSpan is one event's resolved window on the overlap timeline: the
// event plus the [Start, Finish) interval its channel's serialization gives
// it, relative to the step's origin.
type CommSpan struct {
	Event         CommEvent
	Start, Finish time.Duration
}

// OverlapScheduleChannels resolves each event's start/finish under exactly
// the per-channel serialization of OverlapFinishChannels (same traversal,
// same coercion of out-of-range channels onto the fabric) and returns the
// spans in event order together with the step finish. The trace exporter
// renders these spans; tests pin max(compute, last finish) ==
// OverlapFinishChannels so the rendered timeline can never drift from the
// clock charge.
func OverlapScheduleChannels(compute time.Duration, events []CommEvent) ([]CommSpan, time.Duration) {
	var finish [numChannels]time.Duration
	step := compute
	spans := make([]CommSpan, len(events))
	for i, e := range events {
		c := normChannel(e.Channel)
		start := finish[c]
		if e.ReadyAt > start {
			start = e.ReadyAt
		}
		finish[c] = start + e.Cost
		if finish[c] > step {
			step = finish[c]
		}
		spans[i] = CommSpan{Event: e, Start: start, Finish: finish[c]}
	}
	return spans, step
}

// OverlapChannelExposure returns, per channel, how far that channel's
// serialized event timeline extends past the step's compute span — the
// engine's own exposed tail. The step's total exposure is the max (not the
// sum) across channels: the engines run concurrently, so only the longest
// tail extends the step.
func OverlapChannelExposure(compute time.Duration, events []CommEvent) (exposure [NumChannels]time.Duration) {
	var finish [numChannels]time.Duration
	for _, e := range events {
		c := normChannel(e.Channel)
		start := finish[c]
		if e.ReadyAt > start {
			start = e.ReadyAt
		}
		finish[c] = start + e.Cost
	}
	for c := range finish {
		if finish[c] > compute {
			exposure[c] = finish[c] - compute
		}
	}
	return exposure
}

// ReduceOp selects the scalar reduction.
type ReduceOp int

// Supported scalar reductions.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// AllReduceScalar reduces one value across workers (used for loss/metric
// aggregation). The cost charged is one small ring all-reduce. The
// reduction happens inside the barrier generation, so back-to-back calls
// from fast workers cannot corrupt a slow worker's result.
func (w *Worker) AllReduceScalar(v float64, op ReduceOp) float64 {
	p := w.Size()
	if p == 1 {
		return v
	}
	var out float64
	w.vt, out = w.cluster.barrier.wait(w.rank, w.vt, w.commScaled(w.cluster.cfg.Net.RingAllReduceTime(8, p)), v, op)
	return out
}

// AllReduceScalarFree reduces one value across workers WITHOUT charging the
// virtual clock — the control-plane variant for out-of-band agreement (e.g.
// per-step cancellation polling), where an 8-byte flag must not perturb the
// modeled timeline. Clocks still synchronize to the generation's max, which
// every synchronous training step does anyway at its barrier.
func (w *Worker) AllReduceScalarFree(v float64, op ReduceOp) float64 {
	p := w.Size()
	if p == 1 {
		return v
	}
	var out float64
	w.vt, out = w.cluster.barrier.wait(w.rank, w.vt, 0, v, op)
	return out
}

func mod(a, p int) int {
	return ((a % p) + p) % p
}

// timeBarrier is a reusable all-worker rendezvous that computes the max
// virtual clock and an optional scalar reduction per generation. Results
// latch until every waiter of the generation has left: a waiter that has
// not returned cannot re-arrive, and the next generation needs all workers,
// so cross-generation overwrites are impossible. Contributions are stored
// per rank and reduced in rank order once the last worker arrives, so the
// floating-point reduction is deterministic regardless of arrival order.
type timeBarrier struct {
	mu        sync.Mutex
	cond      *sync.Cond
	size      int
	count     int
	gen       int
	maxVT     time.Duration
	maxCost   time.Duration
	vals      []float64
	result    time.Duration
	resultVal float64
}

func newTimeBarrier(size int) *timeBarrier {
	b := &timeBarrier{size: size, vals: make([]float64, size)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all workers arrive, then returns (max(vt)+max(cost),
// reduce(vals)). op must be identical across one generation's callers; rank
// slots the caller's contribution for the ordered reduction. Costs reduce by
// max rather than last-arriver-wins, so the result stays deterministic even
// when a fault window boundary hands the generation's callers different
// scaled costs — with equal costs (every fault-free collective) the max is
// that cost and nothing changes.
func (b *timeBarrier) wait(rank int, vt, cost time.Duration, val float64, op ReduceOp) (time.Duration, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if vt > b.maxVT {
		b.maxVT = vt
	}
	if cost > b.maxCost {
		b.maxCost = cost
	}
	b.vals[rank] = val
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.result = b.maxVT + b.maxCost
		b.resultVal = b.vals[0]
		for _, v := range b.vals[1:] {
			switch op {
			case OpMax:
				if v > b.resultVal {
					b.resultVal = v
				}
			case OpMin:
				if v < b.resultVal {
					b.resultVal = v
				}
			default:
				b.resultVal += v
			}
		}
		b.count = 0
		b.maxVT = 0
		b.maxCost = 0
		b.gen++
		b.cond.Broadcast()
		return b.result, b.resultVal
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.result, b.resultVal
}
