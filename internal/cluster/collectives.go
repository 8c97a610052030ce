package cluster

// The point-to-point mailboxes, the one transport under every collective:
// tagged payloads between worker goroutines, rank r's inbox built by New.

// message is a tagged point-to-point payload.
type message struct {
	from    int
	tag     int
	payload []float64
}

// rawSend ships a copy of payload to rank `to` without touching any virtual
// clock: the collectives charge their modeled cost separately.
func (w *Worker) rawSend(to, tag int, payload []float64) {
	buf := make([]float64, len(payload))
	copy(buf, payload)
	w.cluster.mailboxes[to] <- message{from: w.rank, tag: tag, payload: buf}
}

// rawRecv blocks for the message with the exact (from, tag) without touching
// any virtual clock.
func (w *Worker) rawRecv(from, tag int) []float64 {
	return w.recvMatch(from, tag).payload
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
	inbox := w.cluster.mailboxes[w.rank]
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
