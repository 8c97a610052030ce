package cluster

import (
	"fmt"
	"sort"
	"time"
)

// Sub-communicator collectives for hybrid (spatial x data) parallelism: a
// 2D process grid runs halo exchanges within each replica group and gradient
// AllReduce within each shard group, so the primitives here operate on an
// explicit ordered member list instead of the whole world (the world
// collectives pass the member list [0..Workers)). All data movement rides
// the p2p mailboxes; per-(sender, receiver) FIFO delivery (see recvMatch)
// sequences back-to-back collectives, so the tags are constants.
const (
	groupClockGatherTag  = -(1 << 30)
	groupClockReleaseTag = -(1<<30 + 1)
	groupRingTag         = -(1<<30 + 2)
	haloTag              = -(1<<30 + 3)
	hierReduceTag        = -(1<<30 + 4)
	hierBcastTag         = -(1<<30 + 5)
)

// groupIndex returns w's position in the ordered member list.
func (w *Worker) groupIndex(group []int) int {
	for i, r := range group {
		if r == w.rank {
			return i
		}
	}
	panic(fmt.Sprintf("cluster: rank %d not in group %v", w.rank, group))
}

// GroupBarrier synchronizes the virtual clocks of the group's members to the
// group maximum plus the largest of the members' costs, and returns that
// charged cost. All members must call it with the identical ordered member
// list. Like timeBarrier.wait it charges max(vt) + max(cost), so a degrade
// window that scales some members' costs and not others' gives the same
// clocks whoever leads. Unlike Barrier it involves only the group: other
// workers proceed untouched.
func (w *Worker) GroupBarrier(group []int, cost time.Duration) time.Duration {
	if len(group) <= 1 {
		w.vt += cost
		return cost
	}
	leader := group[0]
	if w.rank != leader {
		w.rawSend(leader, groupClockGatherTag, []float64{float64(w.vt), float64(cost)})
		in := w.rawRecv(leader, groupClockReleaseTag)
		w.vt = time.Duration(in[0])
		return time.Duration(in[1])
	}
	maxVT := w.vt
	for _, r := range group[1:] {
		in := w.rawRecv(r, groupClockGatherTag)
		maxVT = max(maxVT, time.Duration(in[0]))
		cost = max(cost, time.Duration(in[1]))
	}
	w.vt = maxVT + cost
	out := []float64{float64(w.vt), float64(cost)}
	for _, r := range group[1:] {
		w.rawSend(r, groupClockReleaseTag, out)
	}
	return cost
}

// GroupRingAllReduceSized sums vec element-wise across the group's members,
// in place, using a bandwidth-optimal ring over the p2p mailboxes, scaling
// by 1/len(group) when mean is set. All members must call it together with
// the identical ordered member list and equal-length vectors. The reduction
// order is a deterministic function of the group layout, so every member
// ends with bitwise-identical contents. Clocks synchronize within the group
// (GroupBarrier) and advance by the modeled ring cost of wireBytes, priced
// on the link the topology implies (NVLink-class when the whole group
// shares a node, fabric otherwise); the charged cost is returned for the
// caller's comm accounting.
func (w *Worker) GroupRingAllReduceSized(vec []float64, group []int, wireBytes int64, mean bool, topo Topology) time.Duration {
	if m := len(group); m > 1 {
		w.groupRingExchange(vec, group)
		if mean {
			inv := 1 / float64(m)
			for i := range vec {
				vec[i] *= inv
			}
		}
	}
	return w.GroupBarrier(group, w.commScaled(w.groupLink(group, topo).RingAllReduceTime(wireBytes, len(group))))
}

// groupLink returns the interconnect model a group collective rides: the
// intra-node link when every member lives on one simulated node, the fabric
// otherwise.
func (w *Worker) groupLink(group []int, topo Topology) NetworkModel {
	if !topo.Flat() && len(group) > 0 {
		g := topo.groupSize(w.Size())
		node := group[0] / g
		same := true
		for _, r := range group[1:] {
			if r/g != node {
				same = false
				break
			}
		}
		if same {
			return w.cluster.cfg.IntraNet
		}
	}
	return w.cluster.cfg.Net
}

// groupRingExchange is the pure data movement: reduce-scatter then
// all-gather around the ring formed by the group order (no scaling).
func (w *Worker) groupRingExchange(vec []float64, group []int) {
	w.groupReduceScatter(vec, group)
	w.groupAllGather(vec, group)
}

// groupChunk returns chunk j's slice of vec split into len(group) parts.
func groupChunk(vec []float64, m, j int) []float64 {
	return vec[j*len(vec)/m : (j+1)*len(vec)/m]
}

// groupReduceScatter runs the reduce-scatter half of the ring: after m-1
// steps, member `me` holds the fully-reduced chunk (me+1) mod m (the other
// chunks hold partial sums).
func (w *Worker) groupReduceScatter(vec []float64, group []int) {
	m := len(group)
	me := w.groupIndex(group)
	right := group[mod(me+1, m)]
	left := group[mod(me-1, m)]
	for step := 0; step < m-1; step++ {
		w.rawSend(right, groupRingTag, groupChunk(vec, m, mod(me-step, m)))
		in := w.rawRecv(left, groupRingTag)
		dst := groupChunk(vec, m, mod(me-step-1, m))
		for i := range dst {
			dst[i] += in[i]
		}
	}
}

// groupAllGather runs the all-gather half of the ring: every member's owned
// chunk ((me+1) mod m) circulates until all members hold all final chunks.
func (w *Worker) groupAllGather(vec []float64, group []int) {
	m := len(group)
	me := w.groupIndex(group)
	right := group[mod(me+1, m)]
	left := group[mod(me-1, m)]
	for step := 0; step < m-1; step++ {
		w.rawSend(right, groupRingTag, groupChunk(vec, m, mod(me-step+1, m)))
		copy(groupChunk(vec, m, mod(me-step, m)), w.rawRecv(left, groupRingTag))
	}
}

// AsyncTwoStageAllReduce is the grid's gradient collective: vec is summed
// element-wise across the replica group (the spatial reduction) and averaged
// across the shard group (the data-parallel mean), in place, with every
// member of the 2D grid ending bitwise identical. The caller's rank must sit
// at the same index in both lists' intersection (rank layout rep*S+sh
// guarantees it). Unlike the blocking two-ring schedule, the data movement
// is chunked: reduce-scatter within the replica group, allreduce of just the
// owned 1/S chunk across the shard group, then allgather within the replica
// group — the inter-group stage moves S times fewer bytes. On a 1xR grid the
// replica groups have one member and only the middle stage runs: the ring
// over the whole world. Clocks are NOT advanced (clock-deferred): the
// modeled cost is returned, priced per stage on the link its group implies,
// so bucketed overlap can fold it into the step timeline.
func (w *Worker) AsyncTwoStageAllReduce(vec []float64, replicaGroup, shardGroup []int, wireBytes int64, topo Topology) time.Duration {
	s, r := len(replicaGroup), len(shardGroup)
	var cost time.Duration
	if s > 1 {
		w.groupReduceScatter(vec, replicaGroup)
		cost += time.Duration(s-1) * w.groupLink(replicaGroup, topo).TransferTime(wireBytes/int64(s))
	}
	// The fully-reduced chunk this member owns after the reduce-scatter.
	// Every member of the shard group shares the same replica-group index
	// (its shard), so they hold the same chunk of the same logical vector.
	chunk := vec
	if s > 1 {
		chunk = groupChunk(vec, s, mod(w.groupIndex(replicaGroup)+1, s))
	}
	if r > 1 {
		w.groupRingExchange(chunk, shardGroup)
		inv := 1 / float64(r)
		for i := range chunk {
			chunk[i] *= inv
		}
		cost += w.groupLink(shardGroup, topo).RingAllReduceTime(wireBytes/int64(s), r)
	}
	if s > 1 {
		w.groupAllGather(vec, replicaGroup)
		cost += time.Duration(s-1) * w.groupLink(replicaGroup, topo).TransferTime(wireBytes/int64(s))
	}
	return w.commScaled(cost)
}

// NeighborSend is one peer-directed payload of a sparse AllToAllV.
type NeighborSend struct {
	To      int
	Payload []float64
}

// NeighborHandle is an in-flight sparse neighbour exchange: the sends have
// been issued (non-blocking, into the peers' mailboxes), the receives have
// not yet been collected. Interior-first overlapped SpMM computes its
// halo-independent rows between Start and Finish, so the wall time the
// worker would spend blocked waiting for peers is spent computing instead.
type NeighborHandle struct {
	w        *Worker
	recvFrom []int
	recvLens []int
	topo     Topology
	sendCost time.Duration
}

// NeighborAllToAllVStart starts the sparse neighbour exchange under halo
// gathering: each caller ships a variable-length payload to each peer it has
// data for, and the returned handle's Finish blocks for the expected
// payloads from recvFrom (ranks with a zero expected length must be
// omitted). Peers not mentioned on either side are untouched — the
// collective involves only the caller's neighbourhood, and matching calls
// must be issued by exactly the workers that appear in each other's lists.
// Exactly one Finish must follow each Start before the worker issues
// another halo exchange.
//
// The modeled cost prices each message on the link the topology implies
// (NVLink-class intra-node, fabric inter-node) and charges the NIC-serial
// sum of each direction, taking the slower of the two; clocks are NOT
// advanced (clock-deferred, like the Async collectives), so callers can
// charge the cost synchronously or fold it into an overlap timeline.
func (w *Worker) NeighborAllToAllVStart(sends []NeighborSend, recvFrom []int, recvLens []int, topo Topology) *NeighborHandle {
	sorted := make([]NeighborSend, len(sends))
	copy(sorted, sends)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].To < sorted[j].To })
	h := &NeighborHandle{w: w, recvFrom: recvFrom, recvLens: recvLens, topo: topo}
	for _, s := range sorted {
		if s.To == w.rank {
			panic("cluster: NeighborAllToAllVStart self-send")
		}
		w.rawSend(s.To, haloTag, s.Payload)
		h.sendCost += w.linkTo(s.To, topo).TransferTime(int64(len(s.Payload)) * 8)
	}
	return h
}

// Finish blocks for the expected payloads and returns them with the modeled
// exchange cost (the slower of the two NIC-serial directions). Clocks are
// not touched.
func (h *NeighborHandle) Finish() (map[int][]float64, time.Duration) {
	w := h.w
	recvs := make(map[int][]float64, len(h.recvFrom))
	var recvCost time.Duration
	for i, r := range h.recvFrom {
		payload := w.rawRecv(r, haloTag)
		if len(payload) != h.recvLens[i] {
			panic(fmt.Sprintf("cluster: NeighborHandle.Finish expected %d values from rank %d, got %d", h.recvLens[i], r, len(payload)))
		}
		recvs[r] = payload
		recvCost += w.linkTo(r, h.topo).TransferTime(int64(len(payload)) * 8)
	}
	cost := h.sendCost
	if recvCost > cost {
		cost = recvCost
	}
	return recvs, w.commScaled(cost)
}

// linkTo returns the interconnect model for traffic between this worker and
// rank r under the topology: the intra-node link when both ranks share a
// node, the fabric otherwise.
func (w *Worker) linkTo(r int, topo Topology) NetworkModel {
	if !topo.Flat() {
		g := topo.groupSize(w.Size())
		if w.rank/g == r/g {
			return w.cluster.cfg.IntraNet
		}
	}
	return w.cluster.cfg.Net
}
