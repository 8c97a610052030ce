package serve

import (
	"sync"

	"pgti/internal/core"
)

// Flaky wraps a Backend with a deterministic crash schedule: the first
// FailAfter ForwardBatch calls pass through, every later one returns a
// *ReplicaFailedError — modeling a replica process that dies at a known
// point in its request sequence and stays dead. The per-replica call counter
// (not wall time) is the trigger, so a fixed batch schedule reproduces the
// same eviction sequence run to run; the chaos harness and the failover
// benchmark are built on this.
type Flaky struct {
	mu        sync.Mutex
	backend   Backend
	failAfter int
	calls     int
}

// NewFlaky wraps b so its failAfter-th ForwardBatch call (zero-based) and
// every later one fail. failAfter 0 fails from the first call.
func NewFlaky(b Backend, failAfter int) *Flaky {
	return &Flaky{backend: b, failAfter: failAfter}
}

// ForwardBatch counts the call and either passes through or fails,
// per the crash schedule.
func (f *Flaky) ForwardBatch(ws []core.Window) ([]core.Forecast, error) {
	f.mu.Lock()
	n := f.calls
	f.calls++
	f.mu.Unlock()
	if n >= f.failAfter {
		return nil, &ReplicaFailedError{Call: n}
	}
	return f.backend.ForwardBatch(ws)
}
