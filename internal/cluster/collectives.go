package cluster

import (
	"fmt"
	"time"
)

// Point-to-point and additional collective operations. These extend the
// ring AllReduce with the primitives a distributed data service needs:
// Send (batch shipping), Broadcast (model replication), and AllGather
// (metric collection). All are numerically real (data moves between
// goroutines) and charge the Slingshot cost model to the virtual clocks.

// message is a tagged point-to-point payload.
type message struct {
	from    int
	tag     int
	payload []float64
}

// p2p lazily initializes the mailbox fabric.
func (c *Cluster) p2p() []chan message {
	c.p2pOnce.Do(func() {
		c.mailboxes = make([]chan message, c.cfg.Workers)
		for i := range c.mailboxes {
			// Generous buffering: senders never block on a slow receiver in
			// the workloads we model (a few outstanding messages per pair).
			c.mailboxes[i] = make(chan message, 4*c.cfg.Workers)
		}
	})
	return c.mailboxes
}

// Send ships a copy of payload to the worker at rank `to` under a
// non-negative tag, charging the transfer to this worker's virtual clock.
func (w *Worker) Send(to, tag int, payload []float64) {
	if to < 0 || to >= w.Size() {
		panic(fmt.Sprintf("cluster: Send to invalid rank %d of %d", to, w.Size()))
	}
	if tag < 0 {
		panic("cluster: negative tags are reserved for collectives")
	}
	buf := make([]float64, len(payload))
	copy(buf, payload)
	w.cluster.p2p()[to] <- message{from: w.rank, tag: tag, payload: buf}
	w.vt += w.commScaled(w.cluster.cfg.Net.TransferTime(int64(len(payload)) * 8))
}

// recvMatch blocks for the first message matching (from, tag), from = -1
// accepting any sender. Non-matching messages are parked in a worker-local
// pending list that is consulted (in arrival order) before the inbox, so
// same-(sender, tag) messages are always consumed in send order — requeueing
// into the shared channel could reorder them around concurrent arrivals.
func (w *Worker) recvMatch(from, tag int) message {
	for i, m := range w.pending {
		if (from < 0 || m.from == from) && m.tag == tag {
			w.pending = append(w.pending[:i], w.pending[i+1:]...)
			return m
		}
	}
	inbox := w.cluster.p2p()[w.rank]
	for {
		m := <-inbox
		if (from < 0 || m.from == from) && m.tag == tag {
			return m
		}
		w.pending = append(w.pending, m)
	}
}

// broadcastTag marks Broadcast traffic in the shared mailboxes.
const broadcastTag = -2

// Broadcast distributes root's vec to every worker (in place on non-roots).
// All workers must call it with equal-length slices. The modeled cost is a
// binomial tree: ceil(log2(p)) rounds of full-size transfers.
func (w *Worker) Broadcast(vec []float64, root int) {
	p := w.Size()
	if p == 1 {
		return
	}
	c := w.cluster
	if w.rank == root {
		for r := 0; r < p; r++ {
			if r != root {
				buf := make([]float64, len(vec))
				copy(buf, vec)
				c.p2p()[r] <- message{from: root, tag: broadcastTag, payload: buf}
			}
		}
	} else {
		copy(vec, w.recvMatch(root, broadcastTag).payload)
	}
	cost := time.Duration(log2Ceil(p)) * c.cfg.Net.TransferTime(int64(len(vec))*8)
	w.synchronized(cost)
}

// AllGather collects every worker's equal-length contribution into a
// [p * len(vec)] slice ordered by rank. All workers must call it together.
func (w *Worker) AllGather(vec []float64) []float64 {
	p := w.Size()
	out := make([]float64, p*len(vec))
	if p == 1 {
		copy(out, vec)
		return out
	}
	c := w.cluster
	c.gatherOnce.Do(func() { c.gatherSlots = make([][]float64, p) })
	c.gatherMu.Lock()
	c.gatherSlots[w.rank] = append([]float64(nil), vec...)
	c.gatherMu.Unlock()
	// Rendezvous; modeled cost is the ring all-gather: p-1 chunk hops.
	w.synchronized(time.Duration(p-1) * c.cfg.Net.TransferTime(int64(len(vec))*8))
	c.gatherMu.Lock()
	for r := 0; r < p; r++ {
		if c.gatherSlots[r] == nil || len(c.gatherSlots[r]) != len(vec) {
			c.gatherMu.Unlock()
			panic("cluster: AllGather contributions must have equal length")
		}
		copy(out[r*len(vec):(r+1)*len(vec)], c.gatherSlots[r])
	}
	c.gatherMu.Unlock()
	// Release barrier: no worker may start the next collective (and reuse
	// its slot) until every worker has read this generation's slots.
	w.Barrier()
	return out
}

func log2Ceil(p int) int {
	n := 0
	for v := 1; v < p; v *= 2 {
		n++
	}
	return n
}
