package cluster

import (
	"time"
)

// Topology describes the simulated machine layout for hierarchical
// collectives: Nodes physical nodes with GPUsPerNode workers each. Ranks map
// onto nodes contiguously (rank r lives on node r/GPUsPerNode), matching the
// usual launcher placement. A zero or one GPUsPerNode means a flat topology:
// every worker is its own node and hierarchical collectives degenerate to the
// plain inter-node ring.
//
// The world size does not have to equal Nodes*GPUsPerNode: the last node may
// be partially filled (odd world sizes), and Nodes is advisory — the number
// of occupied nodes is always derived from the world size.
type Topology struct {
	Nodes       int
	GPUsPerNode int
}

// Flat reports whether the topology has no intra-node level.
func (t Topology) Flat() bool { return t.GPUsPerNode <= 1 }

// groupSize returns the effective per-node worker count for a world size.
func (t Topology) groupSize(world int) int {
	g := t.GPUsPerNode
	if g < 1 {
		g = 1
	}
	if g > world {
		g = world
	}
	return g
}

// NumNodes returns the number of occupied nodes for a world size.
func (t Topology) NumNodes(world int) int {
	g := t.groupSize(world)
	return (world + g - 1) / g
}

// GroupChannel returns the overlap-timeline channel a group collective rides
// under this topology for the given world size: ChannelIntra when every
// member shares one simulated node (the collective runs on the NVLink-class
// engine, mirroring the link groupLink prices it on), ChannelInter otherwise.
// Trainers stamp their CommEvents with this so OverlapFinishChannels can
// pipeline on-node and cross-node collectives independently.
func (t Topology) GroupChannel(world int, group []int) Channel {
	if t.Flat() || len(group) == 0 {
		return ChannelInter
	}
	g := t.groupSize(world)
	node := group[0] / g
	for _, r := range group[1:] {
		if r/g != node {
			return ChannelInter
		}
	}
	return ChannelIntra
}

// NVLinkModel returns the intra-node interconnect cost model: NVLink-class
// ~300 GB/s per-pair bandwidth, 1 us latency, and no software dispatch
// (GPU-direct peer copies bypass the data service).
func NVLinkModel() NetworkModel {
	return NetworkModel{
		Bandwidth: 300e9,
		Latency:   time.Microsecond,
	}
}

// HierarchicalAllReduceTime models the three-phase hierarchical all-reduce
// of `bytes` across `world` workers laid out per topo: a reduce-scatter +
// gather within each node over the intra link (2(g-1) hops of a 1/g chunk),
// a bandwidth-optimal ring across the node leaders over the fabric, and a
// binomial-tree broadcast back down the intra link.
func HierarchicalAllReduceTime(bytes int64, world int, topo Topology, intra, inter NetworkModel) time.Duration {
	if world <= 1 {
		return 0
	}
	g := topo.groupSize(world)
	m := topo.NumNodes(world)
	var d time.Duration
	if g > 1 {
		// Intra-node reduce-scatter then gather-to-leader: 2(g-1) chunk hops.
		d += time.Duration(2*(g-1)) * intra.TransferTime(bytes/int64(g))
	}
	if m > 1 {
		// Ring all-reduce across the node leaders on the fabric.
		d += inter.RingAllReduceTime(bytes, m)
	}
	if g > 1 {
		// Broadcast back down: ceil(log2(g)) full-size intra transfers.
		d += time.Duration(log2Ceil(g)) * intra.TransferTime(bytes)
	}
	return d
}

// Hierarchical collective tags. Each hierarchical collective call consumes
// one sequence number per worker (matching across workers, since all workers
// issue matching collectives in the same order); encoding the sequence in
// the tag keeps messages of back-to-back collectives from ever aliasing.
const (
	hierPhaseReduce = 0
	hierPhaseRing   = 1
	hierPhaseBcast  = 2
)

func hierTag(seq, phase int) int {
	return -(16 + seq*4 + phase)
}

// rawSend ships a copy of payload to rank `to` without touching any virtual
// clock — the transport primitive under the clock-deferred hierarchical
// collectives (their modeled cost is charged separately).
func (w *Worker) rawSend(to, tag int, payload []float64) {
	buf := make([]float64, len(payload))
	copy(buf, payload)
	w.cluster.p2p()[to] <- message{from: w.rank, tag: tag, payload: buf}
}

// rawRecv blocks for the message with the exact (from, tag) without touching
// any virtual clock.
func (w *Worker) rawRecv(from, tag int) []float64 {
	return w.recvMatch(from, tag).payload
}

// AsyncHierarchicalAllReduceMeanSized averages vec element-wise across all
// workers, in place, with the topology-aware three-phase algorithm: reduce
// to the node leader (summing members in rank order, so the result is
// deterministic), ring all-reduce across node leaders, broadcast back down,
// then the 1/world mean scaling. It leaves every virtual clock untouched
// and returns the modeled cost of wireBytes for the caller's overlap
// accounting.
func (w *Worker) AsyncHierarchicalAllReduceMeanSized(vec []float64, topo Topology, wireBytes int64) time.Duration {
	w.hierExchange(vec, topo)
	return HierarchicalAllReduceTime(wireBytes, w.Size(), topo, w.cluster.cfg.IntraNet, w.cluster.cfg.Net)
}

// hierExchange is the pure data movement of the hierarchical all-reduce
// mean. It never touches clocks.
func (w *Worker) hierExchange(vec []float64, topo Topology) {
	world := w.Size()
	if world == 1 {
		return
	}
	g := topo.groupSize(world)
	m := topo.NumNodes(world)
	node := w.rank / g
	leader := node * g
	nodeSize := g
	if leader+nodeSize > world {
		nodeSize = world - leader
	}
	seq := w.hierSeq
	w.hierSeq++

	// Phase 1: reduce to the node leader, accumulating members in ascending
	// rank order so the floating-point sum is deterministic.
	if w.rank != leader {
		w.rawSend(leader, hierTag(seq, hierPhaseReduce), vec)
	} else {
		for i := 1; i < nodeSize; i++ {
			in := w.rawRecv(leader+i, hierTag(seq, hierPhaseReduce))
			for j := range vec {
				vec[j] += in[j]
			}
		}
		// Phase 2: ring all-reduce (sum) across the node leaders.
		if m > 1 {
			w.leaderRingSum(vec, node, m, g, seq)
		}
	}

	// Phase 3: broadcast the node-identical result back down and scale to
	// the mean. All leaders hold bitwise-identical vectors after the ring's
	// all-gather, so every rank converges to the same bytes.
	if w.rank == leader {
		for i := 1; i < nodeSize; i++ {
			w.rawSend(leader+i, hierTag(seq, hierPhaseBcast), vec)
		}
	} else {
		copy(vec, w.rawRecv(leader, hierTag(seq, hierPhaseBcast)))
	}
	inv := 1 / float64(world)
	for i := range vec {
		vec[i] *= inv
	}
}

// leaderRingSum runs a bandwidth-optimal ring all-reduce (sum, no scaling)
// across the m node leaders over the p2p fabric. node is this leader's index
// in the leader ring; g converts leader indices back to ranks.
func (w *Worker) leaderRingSum(vec []float64, node, m, g, seq int) {
	right := mod(node+1, m) * g
	left := mod(node-1, m) * g
	tag := hierTag(seq, hierPhaseRing)

	bounds := make([]int, m+1)
	for j := 0; j <= m; j++ {
		bounds[j] = j * len(vec) / m
	}
	chunk := func(j int) []float64 { return vec[bounds[j]:bounds[j+1]] }

	// Reduce-scatter: after m-1 steps, leader `node` owns the fully-reduced
	// chunk (node+1) mod m.
	for step := 0; step < m-1; step++ {
		w.rawSend(right, tag, chunk(mod(node-step, m)))
		in := w.rawRecv(left, tag)
		dst := chunk(mod(node-step-1, m))
		for i := range dst {
			dst[i] += in[i]
		}
	}
	// All-gather: circulate the reduced chunks.
	for step := 0; step < m-1; step++ {
		w.rawSend(right, tag, chunk(mod(node-step+1, m)))
		copy(chunk(mod(node-step, m)), w.rawRecv(left, tag))
	}
}
