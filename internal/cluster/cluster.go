// Package cluster is the reproduction's stand-in for Dask.distributed on
// Polaris: a set of worker goroutines with collective operations and a
// virtual-time network model.
//
// Two layers coexist deliberately:
//
//   - Real data movement. AllReduce really exchanges gradient chunks between
//     worker goroutines (one ring algorithm, over ordered member lists, on
//     the point-to-point mailboxes of collectives.go), so distributed
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
	// IntraNet is the intra-node interconnect (default NVLink-class, see
	// NVLinkModel): group collectives whose members share one node ride it,
	// and so do the hierarchical algorithm's per-node phases. Net remains
	// the inter-node fabric.
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
	// world is the member list [0..Workers) the world collectives ring over.
	world   []int
	barrier *timeBarrier
	// mailboxes[r] is rank r's inbox, the transport under every collective
	// (see collectives.go).
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
		cfg:       cfg,
		world:     make([]int, cfg.Workers),
		barrier:   newTimeBarrier(cfg.Workers),
		mailboxes: make([]chan message, cfg.Workers),
	}
	for r := range c.world {
		c.world[r] = r
		// Generous buffering: senders never block on a slow receiver in the
		// workloads we model (a few outstanding messages per pair).
		c.mailboxes[r] = make(chan message, 4*cfg.Workers)
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

// RingAllReduceMean averages vec element-wise across all workers, in place:
// the group ring over the whole world, priced on the fabric. All workers
// must call it with equal-length vectors. Virtual clocks advance by the
// modeled ring cost and synchronize.
func (w *Worker) RingAllReduceMean(vec []float64) {
	w.GroupRingAllReduceSized(vec, w.cluster.world, int64(len(vec))*8, true, Topology{})
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

// CommEvent is one communication launch inside an overlapped step: a
// collective of modeled duration Cost whose inputs become available ReadyAt
// into the step's compute, occupying the engine named by Channel.
type CommEvent struct {
	ReadyAt time.Duration
	Cost    time.Duration
	Channel Channel
}

// CommSpan is one event's resolved window on the overlap timeline: the
// event plus the [Start, Finish) interval its channel's serialization gives
// it, relative to the step's origin.
type CommSpan struct {
	Event         CommEvent
	Start, Finish time.Duration
}

// Overlap resolves a step whose compute spans [0, compute) while each comm
// event occupies its Channel's engine back-to-back in slice order, starting
// no earlier than its ReadyAt (out-of-range channels ride the fabric):
//
//	start_i  = max(finish of the channel's previous event, ReadyAt_i)
//	finish_i = start_i + Cost_i
//	step     = max(compute, every finish)
//
// This is the max(compute, comm) overlap charge: communication hidden under
// remaining compute is free, only the exposed tail extends the step, and
// different channels pipeline independently. With every event on one
// channel it is the single-engine charge, which is why flat topologies,
// whose collectives all ride the fabric, reproduce single-channel timelines
// bitwise. exposure[c] is how far channel c's last finish runs past
// compute; the step's total exposure is the max across channels, not the
// sum. When spans is non-nil it must hold len(events) entries and receives
// each event's window, in event order, for the trace exporter — the
// rendered timeline is the charged one by construction.
func Overlap(compute time.Duration, events []CommEvent, spans []CommSpan) (step time.Duration, exposure [NumChannels]time.Duration) {
	var finish [NumChannels]time.Duration
	step = compute
	for i, e := range events {
		c := e.Channel
		if c < 0 || c >= numChannels {
			c = ChannelInter
		}
		start := finish[c]
		if e.ReadyAt > start {
			start = e.ReadyAt
		}
		finish[c] = start + e.Cost
		step = max(step, finish[c])
		if spans != nil {
			spans[i] = CommSpan{Event: e, Start: start, Finish: finish[c]}
		}
	}
	for c, f := range finish {
		if f > compute {
			exposure[c] = f - compute
		}
	}
	return step, exposure
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
