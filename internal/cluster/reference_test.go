package cluster

import "time"

// Collectives no trainer calls any more — the blocking and unsized forms the
// sized, clock-deferred ones superseded, the fp16 decoder and the matching
// receive — kept as the references their tests exercise.

// AsyncRingAllReduceMean performs the same in-place ring averaging as
// RingAllReduceMean but leaves every virtual clock untouched, returning the
// modeled ring cost instead. Callers that overlap communication with
// compute (bucketed DDP gradient sync) launch these during the backward
// pass and charge the overlapped timeline afterwards via OverlapFinish.
// All workers must issue matching calls in the same order.
func (w *Worker) AsyncRingAllReduceMean(vec []float64) time.Duration {
	return w.AsyncRingAllReduceMeanSized(vec, int64(len(vec))*8)
}

// HierarchicalAllReduceMean averages vec element-wise across all workers, in
// place, using the topology-aware three-phase algorithm: reduce to the node
// leader (summing members in rank order, so the result is deterministic),
// ring all-reduce across node leaders, broadcast back down, then the 1/world
// mean scaling. Every rank ends with bitwise-identical contents — the DDP
// replica invariant. Virtual clocks advance by the modeled hierarchical cost
// and synchronize to the slowest participant.
func (w *Worker) HierarchicalAllReduceMean(vec []float64, topo Topology) {
	w.hierExchange(vec, topo)
	w.synchronized(HierarchicalAllReduceTime(int64(len(vec))*8, w.Size(), topo, w.cluster.cfg.IntraNet, w.cluster.cfg.Net))
}

// AsyncHierarchicalAllReduceMean performs the same in-place hierarchical
// averaging but leaves every virtual clock untouched, returning the modeled
// cost for the caller's overlap accounting (see AsyncRingAllReduceMean).
func (w *Worker) AsyncHierarchicalAllReduceMean(vec []float64, topo Topology) time.Duration {
	return w.AsyncHierarchicalAllReduceMeanSized(vec, topo, int64(len(vec))*8)
}

// DecodeFP16 expands an fp16 wire payload into dst (which must have equal
// length).
func DecodeFP16(enc []uint16, dst []float64) {
	for i, h := range enc {
		dst[i] = Float16ToFloat64(h)
	}
}

// Recv blocks for the next message with the given tag from the given
// sender (from = -1 accepts any sender). Messages that do not match are held
// in a worker-local pending list. Returns the payload and the actual sender.
func (w *Worker) Recv(from, tag int) ([]float64, int) {
	m := w.recvMatch(from, tag)
	return m.payload, m.from
}
