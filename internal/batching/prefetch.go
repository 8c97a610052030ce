package batching

import (
	"sync"

	"pgti/internal/tensor"
)

// prefetched is one collated batch handed from the assembly goroutine to the
// training loop.
type prefetched struct {
	x, y *tensor.Tensor
}

// Prefetcher pipelines a Source's AssembleBatch against the training step: a single
// goroutine collates batch T+1 on the parallel pool while the consumer runs
// forward/backward on batch T. The pipeline is exactly one batch deep — the
// producer hands batches over an unbuffered channel, so it is never more
// than one assembled batch ahead of the consumer.
//
// Storage is double-buffered: batch i lands in an internal slot i%2, and the
// one-deep handoff guarantees the producer only starts overwriting a slot
// after the consumer has moved on to the *other* slot's batch. The tensors
// returned by Next are views into those slots and stay valid until the next
// Next (or Close) call; batch contents are bitwise identical to a serial
// AssembleBatch of the same indices — the pipeline changes timing, not bits.
//
// The producer goroutine does pure-local compute only (index-gather on the
// process-wide worker pool). It must never touch cluster collectives: those
// are bound to the rank goroutine that owns the Worker.
type Prefetcher struct {
	ch   chan prefetched
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewPrefetcher starts assembling the given batch schedule from data.
// Callers must Close the prefetcher on every exit path (including
// cancellation mid-epoch) to reclaim the goroutine.
func NewPrefetcher(data Source, batches [][]int) *Prefetcher {
	p := &Prefetcher{
		ch:   make(chan prefetched),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		defer close(p.ch)
		var bufs [2]BatchBuffer
		for i, indices := range batches {
			x, y := data.AssembleBatch(indices, &bufs[i%2])
			select {
			case p.ch <- prefetched{x: x, y: y}:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Next blocks for the next assembled batch. ok is false once the schedule is
// exhausted (or the prefetcher was closed). The returned tensors alias the
// prefetcher's internal double buffer: they are valid until the next call to
// Next or Close.
func (p *Prefetcher) Next() (x, y *tensor.Tensor, ok bool) {
	b, ok := <-p.ch
	return b.x, b.y, ok
}

// Close stops the assembly goroutine and waits for it to exit. Idempotent
// and safe to call at any point of the schedule — mid-epoch cancellation
// drains cleanly.
func (p *Prefetcher) Close() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}
