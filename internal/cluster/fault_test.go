package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pgti/internal/fault"
)

// TestFaultPollAgreesOnCrash checks that every rank returns the same
// *WorkerLostError once any rank's clock passes the scheduled crash, with
// clocks synchronized to the latest rank plus the detection timeout, and
// that a poll before the crash is free.
func TestFaultPollAgreesOnCrash(t *testing.T) {
	const ms = time.Millisecond
	c, err := New(Config{Workers: 3, Faults: fault.New(1, fault.Crash(1, 5*ms), fault.Detection(2*ms))})
	if err != nil {
		t.Fatal(err)
	}
	lost := make([]*WorkerLostError, 3)
	after := make([]time.Duration, 3)
	err = c.Run(func(w *Worker) error {
		if err := w.FaultPoll(); err != nil || w.VirtualTime() != 0 {
			t.Errorf("rank %d: poll before the crash = %v at %v, want nil at 0", w.Rank(), err, w.VirtualTime())
		}
		w.AdvanceTime(time.Duration(w.Rank()+1) * 3 * ms) // 3, 6, 9 ms
		if !errors.As(w.FaultPoll(), &lost[w.Rank()]) {
			t.Errorf("rank %d: poll after the crash did not report the loss", w.Rank())
		}
		after[w.Rank()] = w.VirtualTime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range lost {
		if e == nil || *e != (WorkerLostError{Rank: 1, At: 5 * ms, Detected: 11 * ms}) || after[r] != 11*ms {
			t.Fatalf("rank %d: lost %+v at %v, want rank 1 at 5ms detected 11ms", r, e, after[r])
		}
	}
	if msg := lost[0].Error(); !strings.Contains(msg, "worker 1 lost at 5ms") {
		t.Fatalf("Error() = %q", msg)
	}

	// A plan without crashes, or no plan, never reports a loss.
	for _, p := range []*fault.Plan{nil, fault.New(1, fault.Slow(0, 2, 0, ms))} {
		c, _ := New(Config{Workers: 2, Faults: p})
		if err := c.Run(func(w *Worker) error {
			w.AdvanceTime(time.Second)
			return w.FaultPoll()
		}); err != nil {
			t.Fatalf("plan %+v: %v", p, err)
		}
	}
}

// TestFaultWindowsScaleCosts checks that a straggler window scales only its
// rank's compute and a degrade window scales collective costs, both only
// while the window is open.
func TestFaultWindowsScaleCosts(t *testing.T) {
	const ms = time.Millisecond
	scalarCost := func(p *fault.Plan, start time.Duration) time.Duration {
		c, _ := New(Config{Workers: 2, Faults: p})
		cost := make([]time.Duration, 2)
		if err := c.Run(func(w *Worker) error {
			w.AdvanceTime(start)
			w.AllReduceScalar(1, OpMax)
			cost[w.Rank()] = w.VirtualTime() - start
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return cost[0]
	}
	plain := scalarCost(nil, 0)
	degraded := fault.New(1, fault.Degrade(3, 0, 10*ms))
	if got := scalarCost(degraded, 0); got != time.Duration(float64(plain)*3) {
		t.Fatalf("degraded all-reduce cost %v, want 3 x %v", got, plain)
	}
	if got := scalarCost(degraded, 20*ms); got != plain {
		t.Fatalf("all-reduce after the degrade window cost %v, want %v", got, plain)
	}

	c, _ := New(Config{Workers: 2, Faults: fault.New(1, fault.Slow(0, 2, 0, 10*ms))})
	got := make([][2]time.Duration, 2)
	if err := c.Run(func(w *Worker) error {
		got[w.Rank()][0] = w.ScaleCompute(4 * ms)
		w.AdvanceTime(10 * ms)
		got[w.Rank()][1] = w.ScaleCompute(4 * ms)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := [][2]time.Duration{{8 * ms, 4 * ms}, {4 * ms, 4 * ms}}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ScaleCompute in and after the window = %v, want %v", got, want)
	}
}
