package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pgti/internal/core"
)

// stubBackend is a deterministic fake replica: the forecast for a window
// echoes the window's first value, and the batch sizes it saw are recorded.
// gate, when non-nil, blocks every ForwardBatch until released — the lever
// the shed/drain/cancel tests use to hold requests in flight.
type stubBackend struct {
	mu      sync.Mutex
	batches []int
	gate    chan struct{}
	gated   int // forwards that reached the gate (parked or passed)
	err     error
}

func (b *stubBackend) ForwardBatch(ws []core.Window) ([]core.Forecast, error) {
	if b.gate != nil {
		b.mu.Lock()
		b.gated++
		b.mu.Unlock()
		<-b.gate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil, b.err
	}
	b.batches = append(b.batches, len(ws))
	out := make([]core.Forecast, len(ws))
	for i, w := range ws {
		out[i] = core.Forecast{Horizon: 1, Nodes: 1, Pred: []float64{w.Values[0]}}
	}
	return out, nil
}

func (b *stubBackend) seen() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.batches...)
}

func win(v float64) core.Window { return core.Window{Values: []float64{v}} }

// flatCost prices every batch at a fixed launch plus a per-window term.
func flatCost(launch, per time.Duration) CostModel {
	return func(b int) time.Duration { return launch + time.Duration(b)*per }
}

func TestCoalesceFullBatch(t *testing.T) {
	b := &stubBackend{}
	s := New([]Backend{b}, Config{MaxBatch: 4, Window: 10 * time.Second, Cost: flatCost(time.Millisecond, time.Microsecond)})
	defer s.Close()

	var wg sync.WaitGroup
	results := make([]core.Forecast, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := s.Predict(context.Background(), win(float64(i)))
			if err != nil {
				t.Errorf("Predict %d: %v", i, err)
				return
			}
			results[i] = f
		}(i)
	}
	wg.Wait()

	// Each caller must get its own window's forecast back, not a
	// neighbor's — coalescing preserves request identity.
	for i, f := range results {
		if len(f.Pred) != 1 || f.Pred[0] != float64(i) {
			t.Fatalf("caller %d got %v, want [%d]", i, f.Pred, i)
		}
	}
	// The generous window means the count trigger formed one full batch.
	if seen := b.seen(); len(seen) != 1 || seen[0] != 4 {
		t.Fatalf("backend saw batches %v, want [4]", seen)
	}
	st := s.Stats()
	if st.Completed != 4 || st.Batches != 1 || st.MeanBatch != 4 {
		t.Fatalf("stats %+v, want 4 completed in 1 batch", st)
	}
}

func TestWindowTimerDispatchesShortBatch(t *testing.T) {
	b := &stubBackend{}
	window := 5 * time.Millisecond
	cost := flatCost(time.Millisecond, time.Microsecond)
	s := New([]Backend{b}, Config{MaxBatch: 8, Window: window, Cost: cost})
	defer s.Close()

	f, err := s.Predict(context.Background(), win(7))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if f.Pred[0] != 7 {
		t.Fatalf("got %v, want [7]", f.Pred)
	}
	if seen := b.seen(); len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("backend saw batches %v, want [1]", seen)
	}
	// Timer-triggered dispatch charges the window wait to the modeled
	// latency: arrival at v=0, start at v=window, done at window+cost(1).
	st := s.Stats()
	if want := window + cost(1); st.P50 != want || st.Virtual != want {
		t.Fatalf("modeled latency p50=%v virtual=%v, want %v", st.P50, st.Virtual, want)
	}
}

func TestDeterministicVirtualStats(t *testing.T) {
	b := &stubBackend{}
	cost := flatCost(2*time.Millisecond, 250*time.Microsecond)
	s := New([]Backend{b}, Config{MaxBatch: 1, Window: time.Second, Cost: cost})
	defer s.Close()

	const rounds = 10
	for i := 0; i < rounds; i++ {
		if _, err := s.Predict(context.Background(), win(float64(i))); err != nil {
			t.Fatalf("Predict %d: %v", i, err)
		}
	}
	st := s.Stats()
	per := cost(1)
	if st.Completed != rounds || st.Batches != rounds {
		t.Fatalf("stats %+v, want %d completed in %d batches", st, rounds, rounds)
	}
	if st.Virtual != time.Duration(rounds)*per {
		t.Fatalf("virtual %v, want %v", st.Virtual, time.Duration(rounds)*per)
	}
	if st.P50 != per || st.P99 != per {
		t.Fatalf("p50=%v p99=%v, want both %v", st.P50, st.P99, per)
	}
	wantQPS := float64(rounds) / (time.Duration(rounds) * per).Seconds()
	if st.QPS != wantQPS {
		t.Fatalf("QPS %v, want %v", st.QPS, wantQPS)
	}
}

// TestArrivalProcessStampsOpenLoopArrivals: with Interarrival set, the n-th
// admitted request arrives at n*Interarrival on the virtual clock no matter
// when the host actually ran it. Offering 1 request/ms to a 2ms server must
// therefore model a growing queue: latencies 2,3,4,5ms for four requests,
// even though the calls here are fully serial in real time.
func TestArrivalProcessStampsOpenLoopArrivals(t *testing.T) {
	b := &stubBackend{}
	cost := flatCost(2*time.Millisecond, 0)
	s := New([]Backend{b}, Config{MaxBatch: 1, Window: time.Second, Cost: cost, Interarrival: time.Millisecond})
	defer s.Close()

	for i := 0; i < 4; i++ {
		if _, err := s.Predict(context.Background(), win(float64(i))); err != nil {
			t.Fatalf("Predict %d: %v", i, err)
		}
	}
	st := s.Stats()
	// Request n: arrives n ms, starts max(n, 2n) ms, done 2(n+1) ms.
	if want := 8 * time.Millisecond; st.Virtual != want {
		t.Fatalf("virtual %v, want %v", st.Virtual, want)
	}
	if st.P50 != 3*time.Millisecond || st.P99 != 5*time.Millisecond {
		t.Fatalf("p50=%v p99=%v, want 3ms/5ms from the modeled backlog", st.P50, st.P99)
	}
	if want := 4 / (8 * time.Millisecond).Seconds(); st.QPS != want {
		t.Fatalf("QPS %v, want %v", st.QPS, want)
	}
}

func TestShedTypedOverload(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{})}
	cost := flatCost(time.Millisecond, 0)
	s := New([]Backend{b}, Config{MaxBatch: 1, Window: time.Millisecond, QueueDepth: 2, Cost: cost})

	// One request occupies the backend (gated) ...
	errs := make(chan error, 3)
	go func() {
		_, err := s.Predict(context.Background(), win(0))
		errs <- err
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.replicas[0].busy && len(s.queue) == 0
	})
	// ... then two more fill the queue to exactly QueueDepth.
	for i := 1; i < 3; i++ {
		go func(i int) {
			_, err := s.Predict(context.Background(), win(float64(i)))
			errs <- err
		}(i)
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.queue) == 2
	})

	_, err := s.Predict(context.Background(), win(99))
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("want *OverloadedError, got %v", err)
	}
	if ov.QueueDepth != 2 {
		t.Fatalf("shed at depth %d, want 2", ov.QueueDepth)
	}
	if want := 2 * cost(1); ov.RetryAfter != want {
		t.Fatalf("retry hint %v, want %v (2 backlog batches on 1 replica)", ov.RetryAfter, want)
	}

	close(b.gate)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
	s.Close()
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", st.Shed)
	}
}

func TestCloseDrainsQueuedRequests(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{})}
	s := New([]Backend{b}, Config{MaxBatch: 2, Window: 10 * time.Second, Cost: flatCost(time.Millisecond, 0)})

	errs := make(chan error, 5)
	for i := 0; i < 5; i++ {
		go func(i int) {
			_, err := s.Predict(context.Background(), win(float64(i)))
			errs <- err
		}(i)
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.queue)+int(s.completed) >= 5 || len(s.queue) >= 3
	})

	close(b.gate) // let forwards proceed
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every admitted request completed rather than hanging or erroring.
	for i := 0; i < 5; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("drained request failed: %v", err)
		}
	}
	if _, err := s.Predict(context.Background(), win(0)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-close Predict: %v, want ErrServerClosed", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if st := s.Stats(); st.Completed != 5 {
		t.Fatalf("completed %d, want 5", st.Completed)
	}
}

func TestCancelledRequestReturnsCleanly(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{})}
	s := New([]Backend{b}, Config{MaxBatch: 1, Window: time.Millisecond, Cost: flatCost(time.Millisecond, 0)})

	// Occupy the backend so the cancelled request stays queued.
	first := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), win(0))
		first <- err
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, r := range s.replicas {
			if r.busy {
				return true
			}
		}
		return false
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, win(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Predict: %v, want context.Canceled", err)
	}

	close(b.gate)
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if err := s.Close(); err != nil { // must not hang on the cancelled residue
		t.Fatalf("Close: %v", err)
	}
}

func TestDeadlineBoundsPredict(t *testing.T) {
	b := &stubBackend{gate: make(chan struct{})}
	s := New([]Backend{b}, Config{MaxBatch: 1, Window: time.Millisecond, Deadline: 10 * time.Millisecond, Cost: flatCost(time.Millisecond, 0)})

	hold := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), win(0))
		hold <- err
	}()
	if _, err := s.Predict(context.Background(), win(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined Predict: %v, want context.DeadlineExceeded", err)
	}
	close(b.gate)
	<-hold
	s.Close()
}

func TestForwardErrorPropagatesToWholeBatch(t *testing.T) {
	b := &stubBackend{err: fmt.Errorf("replica exploded")}
	s := New([]Backend{b}, Config{MaxBatch: 2, Window: 10 * time.Second, Cost: flatCost(time.Millisecond, 0)})
	defer s.Close()

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := s.Predict(context.Background(), win(float64(i)))
			errs <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil || err.Error() != "replica exploded" {
			t.Fatalf("batch member error %v, want replica exploded", err)
		}
	}
}

func TestLeastLoadedDispatchUsesBothReplicas(t *testing.T) {
	b0 := &stubBackend{gate: make(chan struct{})}
	b1 := &stubBackend{gate: make(chan struct{})}
	s := New([]Backend{b0, b1}, Config{MaxBatch: 1, Window: time.Millisecond, Cost: flatCost(time.Millisecond, 0)})

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := s.Predict(context.Background(), win(float64(i)))
			errs <- err
		}(i)
	}
	// With replica 0 gated and busy, the second request must land on
	// replica 1 — both gates release their own batch.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.replicas[0].busy && s.replicas[1].busy
	})
	close(b0.gate)
	close(b1.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	s.Close()
	if len(b0.seen()) != 1 || len(b1.seen()) != 1 {
		t.Fatalf("batches split %v / %v, want one each", b0.seen(), b1.seen())
	}
	if st := s.Stats(); st.Replicas != 2 {
		t.Fatalf("stats replicas %d, want 2", st.Replicas)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.MaxBatch != 8 || c.Window != 2*time.Millisecond || c.QueueDepth != 32 || c.Cost == nil {
		t.Fatalf("defaults %+v", c)
	}
	if c.Cost(1) <= 0 || c.Cost(8) <= c.Cost(1) {
		t.Fatalf("default cost not monotone: cost(1)=%v cost(8)=%v", c.Cost(1), c.Cost(8))
	}
}

func TestDefaultCostAmortizesLaunch(t *testing.T) {
	cost := DefaultCost(1<<20, 1<<12)
	// Per-request cost must fall as the batch grows: the parameter stream
	// is paid once per launch.
	if per1, per8 := cost(1), cost(8)/8; per8 >= per1 {
		t.Fatalf("batching does not amortize: per-window cost(1)=%v cost(8)/8=%v", per1, per8)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lat, 50); p != 5 {
		t.Fatalf("p50 = %v, want 5", p)
	}
	if p := percentile(lat, 99); p != 10 {
		t.Fatalf("p99 = %v, want 10", p)
	}
	if p := percentile(lat[:1], 99); p != 1 {
		t.Fatalf("single-sample p99 = %v, want 1", p)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStatsSampledAndDropped: the latency ring must not silently truncate.
// Its capacity grows with the admission queue (max(4096, 4*QueueDepth)) so
// a deep queue cannot rotate in-flight samples out unseen, and Stats now
// says exactly how many completions back the percentiles (SampledRequests)
// and how many aged out (DroppedSamples).
func TestStatsSampledAndDropped(t *testing.T) {
	b := &stubBackend{}
	// QueueDepth 1500 grows the ring to 6000; drive 6300 completions so
	// exactly 300 age out.
	s := New([]Backend{b}, Config{
		MaxBatch: 8, Window: time.Nanosecond, QueueDepth: 1500,
		Cost: flatCost(time.Microsecond, 0),
	})
	defer s.Close()

	const total = 6300
	for i := 0; i < total; i++ {
		if _, err := s.Predict(context.Background(), win(float64(i%97))); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Completed != total {
		t.Fatalf("completed %d, want %d", st.Completed, total)
	}
	if st.SampledRequests != 6000 {
		t.Fatalf("SampledRequests = %d, want ring capacity 6000 (4*QueueDepth)", st.SampledRequests)
	}
	if st.DroppedSamples != total-6000 {
		t.Fatalf("DroppedSamples = %d, want %d", st.DroppedSamples, total-6000)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("percentiles malformed: p50 %v p99 %v", st.P50, st.P99)
	}

	// Under the cap nothing drops and the books balance.
	b2 := &stubBackend{}
	s2 := New([]Backend{b2}, Config{MaxBatch: 4, Window: time.Nanosecond, Cost: flatCost(time.Microsecond, 0)})
	defer s2.Close()
	for i := 0; i < 10; i++ {
		if _, err := s2.Predict(context.Background(), win(1)); err != nil {
			t.Fatal(err)
		}
	}
	st2 := s2.Stats()
	if st2.SampledRequests != 10 || st2.DroppedSamples != 0 {
		t.Fatalf("under-cap run: sampled %d dropped %d, want 10 and 0", st2.SampledRequests, st2.DroppedSamples)
	}
}
