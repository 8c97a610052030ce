package cluster

// The point-to-point mailboxes under the hierarchical and group
// collectives: tagged payloads between worker goroutines.

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

func log2Ceil(p int) int {
	n := 0
	for v := 1; v < p; v *= 2 {
		n++
	}
	return n
}
