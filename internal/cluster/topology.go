package cluster

import "time"

// Topology describes the simulated machine layout: Nodes physical nodes with
// GPUsPerNode workers each. Ranks map onto nodes contiguously (rank r lives
// on node r/GPUsPerNode), matching the usual launcher placement. A group
// collective whose members share one node rides the intra-node link, and
// the hierarchical algorithm reduces per node first. A zero or one
// GPUsPerNode means a flat topology: every worker is its own node, every
// collective rides the fabric, and the hierarchical algorithm degenerates
// to the plain inter-node ring.
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
// Trainers stamp their CommEvents with this so Overlap can pipeline on-node
// and cross-node collectives independently.
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

// AsyncHierarchicalAllReduceMeanSized averages vec element-wise across all
// workers, in place, with the topology-aware three-phase algorithm: reduce
// to the node leader (summing members in rank order, so the result is
// deterministic), the group ring across the node leaders, broadcast back
// down, then the 1/world mean scaling. It leaves every virtual clock
// untouched and returns the modeled cost of wireBytes for the caller's
// overlap accounting.
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
	leader := w.rank / g * g
	end := min(leader+g, world)
	if w.rank != leader {
		w.rawSend(leader, hierReduceTag, vec)
		copy(vec, w.rawRecv(leader, hierBcastTag))
	} else {
		// Accumulate the node's members in ascending rank order so the
		// floating-point sum is deterministic.
		for r := leader + 1; r < end; r++ {
			in := w.rawRecv(r, hierReduceTag)
			for j := range vec {
				vec[j] += in[j]
			}
		}
		if m := topo.NumNodes(world); m > 1 {
			leaders := make([]int, m)
			for i := range leaders {
				leaders[i] = i * g
			}
			w.groupRingExchange(vec, leaders)
		}
		// Every leader holds the same bytes after the ring's all-gather, so
		// every rank converges to them.
		for r := leader + 1; r < end; r++ {
			w.rawSend(r, hierBcastTag, vec)
		}
	}
	inv := 1 / float64(world)
	for i := range vec {
		vec[i] *= inv
	}
}
