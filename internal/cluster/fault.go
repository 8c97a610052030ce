package cluster

import (
	"fmt"
	"time"
)

// Fault integration: a cluster armed with a fault.Plan injects the plan's
// faults on the virtual clock. Crashes are not modeled by killing goroutines
// — that would deadlock the channel rings mid-collective — but by agreement:
// every worker holds an identical copy of the plan, polls it at step
// boundaries (FaultPoll), and once any clock has passed a scheduled crash
// time all ranks charge the modeled detection timeout and return the same
// typed *WorkerLostError, so the trainer run aborts cleanly and its caller
// can rebuild the grid from the survivors. Straggler and link-degrade
// windows scale compute and transfer charges in place; every scaling site
// takes the untouched fast path when no plan is armed or no window is
// active, which pins the armed-but-empty plan bitwise identical to no plan.

// WorkerLostError is the typed error every rank of a collective run returns
// when a scheduled worker crash is detected.
type WorkerLostError struct {
	// Rank is the crashed worker, numbered in the grid the plan was armed on.
	Rank int
	// At is the scheduled crash time on the virtual clock.
	At time.Duration
	// Detected is the virtual time at which the survivors agreed on the
	// loss, including the modeled detection timeout.
	Detected time.Duration
}

// Error implements error.
func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("cluster: worker %d lost at %v (detected %v)", e.Rank, e.At, e.Detected)
}

// ScaleCompute inflates a modeled compute duration by this rank's active
// straggler factor at the current virtual time. With no plan armed or no
// active window the duration is returned untouched (bitwise, not
// multiplied by 1.0), so fault-free timelines are unperturbed.
func (w *Worker) ScaleCompute(d time.Duration) time.Duration {
	p := w.cluster.cfg.Faults
	if p == nil {
		return d
	}
	f := p.StragglerFactor(w.rank, w.vt)
	if f == 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// commScaled inflates a modeled transfer cost by the active link-degrade
// factor at the current virtual time, with the same untouched fast path as
// ScaleCompute.
func (w *Worker) commScaled(d time.Duration) time.Duration {
	p := w.cluster.cfg.Faults
	if p == nil {
		return d
	}
	f := p.DegradeFactor(w.vt)
	if f == 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// FaultPoll is the step-boundary crash check. Each rank evaluates the armed
// plan against its own (deterministic) virtual clock and the ranks agree via
// a clock-free OpMax reduction — the same control-plane collective the
// cancellation poll rides — so either every rank returns nil or every rank
// charges the modeled detection timeout and returns the same
// *WorkerLostError. With no plan armed (or no crash scheduled) the poll is
// free: no collective is issued, no clock is touched.
func (w *Worker) FaultPoll() error {
	p := w.cluster.cfg.Faults
	if p == nil {
		return nil
	}
	crash, ok := p.NextCrash()
	if !ok {
		return nil
	}
	flag := 0.0
	if w.vt >= crash.At {
		flag = 1
	}
	if w.AllReduceScalarFree(flag, OpMax) > 0 {
		w.vt += p.Detection
		return &WorkerLostError{Rank: crash.Rank, At: crash.At, Detected: w.vt}
	}
	return nil
}
