package cluster

import (
	"fmt"
	"sync"
	"time"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// broadcastTag marks Broadcast traffic in the shared mailboxes.
const broadcastTag = -2

// Size returns the worker count.
func (c *Cluster) Size() int { return c.cfg.Workers }

// IntraNet returns the intra-node network model used by hierarchical
// collectives.
func (c *Cluster) IntraNet() NetworkModel { return c.cfg.IntraNet }

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

// gatherScratch holds each cluster's AllGather slots.
var gatherScratch sync.Map // *Cluster -> *gatherSlots

type gatherSlots struct {
	mu    sync.Mutex
	slots [][]float64
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
	v, _ := gatherScratch.LoadOrStore(w.cluster, &gatherSlots{slots: make([][]float64, p)})
	g := v.(*gatherSlots)
	g.mu.Lock()
	g.slots[w.rank] = append([]float64(nil), vec...)
	g.mu.Unlock()
	// Rendezvous; modeled cost is the ring all-gather: p-1 chunk hops.
	w.synchronized(time.Duration(p-1) * w.cluster.cfg.Net.TransferTime(int64(len(vec))*8))
	g.mu.Lock()
	for r := 0; r < p; r++ {
		if g.slots[r] == nil || len(g.slots[r]) != len(vec) {
			g.mu.Unlock()
			panic("cluster: AllGather contributions must have equal length")
		}
		copy(out[r*len(vec):(r+1)*len(vec)], g.slots[r])
	}
	g.mu.Unlock()
	// Release barrier: no worker may start the next collective (and reuse
	// its slot) until every worker has read this generation's slots.
	w.Barrier()
	return out
}

// Residual exposes the current error-feedback residual (nil before the
// first encode). Tests use it to bound the cumulative drift.
func (c *FP16Codec) Residual() []float64 { return c.residual }

// Encode quantizes vec (plus residual) to the fp16 wire payload, updating
// the residual exactly like ApplyInPlace (which it delegates to, so the
// residual rule lives in one place).
func (c *FP16Codec) Encode(vec []float64) []uint16 {
	tmp := append([]float64(nil), vec...)
	c.ApplyInPlace(tmp)
	out := make([]uint16, len(tmp))
	for i, v := range tmp {
		// v is already an exact half value (or NaN), so this is lossless.
		out[i] = Float16FromFloat64(v)
	}
	return out
}
