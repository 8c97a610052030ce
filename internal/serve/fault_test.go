package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitServeGoroutines polls until the goroutine count settles back to the
// baseline (background collectors and retry goroutines have exited).
func waitServeGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// TestReplicaFailoverRetriesOnHealthy: a failed replica is evicted and its
// batch redispatched to the healthy replica — the caller sees the forecast,
// never the failure; Stats counts the retry, the eviction, and the shrunken
// pool.
func TestReplicaFailoverRetriesOnHealthy(t *testing.T) {
	flaky := NewFlaky(&stubBackend{}, 0) // dies on its first forward
	healthy := &stubBackend{}
	s := New([]Backend{flaky, healthy}, Config{
		MaxBatch: 1, Window: 10 * time.Second,
		Cost:         flatCost(time.Millisecond, 0),
		RetryBackoff: 4 * time.Millisecond,
	})
	defer s.Close()

	f, err := s.Predict(context.Background(), win(7))
	if err != nil {
		t.Fatalf("failover did not mask the replica failure: %v", err)
	}
	if f.Pred[0] != 7 {
		t.Errorf("forecast %v, want the healthy replica's 7", f.Pred[0])
	}
	st := s.Stats()
	if st.Retries != 1 || st.EvictedReplicas != 1 || st.Replicas != 1 {
		t.Errorf("stats retries=%d evicted=%d replicas=%d, want 1/1/1", st.Retries, st.EvictedReplicas, st.Replicas)
	}
	// The retry's modeled start is pushed by one backoff: arrival 0, backoff
	// 4ms, cost 1ms → latency exactly 5ms.
	if want := 5 * time.Millisecond; st.P50 != want {
		t.Errorf("modeled retry latency %v, want %v", st.P50, want)
	}
	if flaky.Calls() != 1 {
		t.Errorf("dead replica saw %d calls, want 1 (never redispatched)", flaky.Calls())
	}
}

// TestLastHealthyReplicaIsNeverEvicted: the pool degrades to one replica and
// stops there — a failure on the last replica reaches the caller as the
// typed error, and the replica stays in the pool for later (possibly
// swapped-back-to-health) traffic.
func TestLastHealthyReplicaIsNeverEvicted(t *testing.T) {
	s := New([]Backend{NewFlaky(&stubBackend{}, 0)}, Config{
		MaxBatch: 1, Window: 10 * time.Second, Cost: flatCost(time.Millisecond, 0),
	})
	defer s.Close()

	_, err := s.Predict(context.Background(), win(1))
	var rf *ReplicaFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("error %v, want *ReplicaFailedError from the last replica", err)
	}
	st := s.Stats()
	if st.EvictedReplicas != 0 || st.Retries != 0 || st.Replicas != 1 {
		t.Errorf("stats evicted=%d retries=%d replicas=%d, want 0/0/1 (degraded, not shed)",
			st.EvictedReplicas, st.Retries, st.Replicas)
	}
}

// TestExponentialBackoffAccumulates: two successive evictions charge
// RetryBackoff then 2x RetryBackoff before the batch lands on the last
// healthy replica.
func TestExponentialBackoffAccumulates(t *testing.T) {
	s := New([]Backend{NewFlaky(&stubBackend{}, 0), NewFlaky(&stubBackend{}, 0), &stubBackend{}}, Config{
		MaxBatch: 1, Window: 10 * time.Second,
		Cost:         flatCost(time.Millisecond, 0),
		RetryBackoff: 4 * time.Millisecond,
	})
	defer s.Close()

	if _, err := s.Predict(context.Background(), win(2)); err != nil {
		t.Fatalf("double failover: %v", err)
	}
	st := s.Stats()
	if st.Retries != 2 || st.EvictedReplicas != 2 || st.Replicas != 1 {
		t.Errorf("stats retries=%d evicted=%d replicas=%d, want 2/2/1", st.Retries, st.EvictedReplicas, st.Replicas)
	}
	// arrival 0 + 4ms + 8ms backoff + 1ms cost.
	if want := 13 * time.Millisecond; st.P50 != want {
		t.Errorf("modeled latency %v, want %v", st.P50, want)
	}
}

// TestCloseDrainsInflightRetry: Close waits for a batch whose retry is
// parked behind a busy healthy replica — every admitted request completes,
// and no goroutine (collector, retry, or launch) outlives the drain.
func TestCloseDrainsInflightRetry(t *testing.T) {
	baseline := runtime.NumGoroutine()
	gate := make(chan struct{})
	healthy := &stubBackend{gate: gate}
	flaky := NewFlaky(&stubBackend{}, 0) // dies on its first forward
	s := New([]Backend{healthy, flaky}, Config{
		MaxBatch: 1, Window: 10 * time.Second, Cost: flatCost(time.Millisecond, 0),
	})

	// Request A lands on replica 0 (pool order) and parks on the gate.
	// Request B then dispatches to replica 1, fails, evicts it, and its
	// retry blocks acquiring replica 0 — a retry in flight mid-redispatch.
	resA := make(chan error, 1)
	resB := make(chan error, 1)
	go func() { _, err := s.Predict(context.Background(), win(1)); resA <- err }()
	waitForCalls(t, healthy, 1)
	go func() { _, err := s.Predict(context.Background(), win(2)); resB <- err }()
	waitForEvictions(t, s, 1)

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	close(gate) // release A; B's retry then takes replica 0

	for _, ch := range []chan error{resA, resB} {
		if err := <-ch; err != nil {
			t.Fatalf("request failed across the drain: %v", err)
		}
	}
	<-closed
	st := s.Stats()
	if st.Completed != 2 || st.Retries != 1 || st.EvictedReplicas != 1 {
		t.Errorf("stats completed=%d retries=%d evicted=%d, want 2/1/1", st.Completed, st.Retries, st.EvictedReplicas)
	}
	waitServeGoroutines(t, baseline)
}

// waitForCalls polls until the stub has served n forwards (they may be
// parked on the gate — the batches slice is appended after the gate).
func waitForCalls(t *testing.T, b *stubBackend, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		b.mu.Lock()
		g := b.gated
		b.mu.Unlock()
		if g >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stub never reached %d forwards", n)
}

// waitForEvictions polls Stats until n replicas have been evicted.
func waitForEvictions(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().EvictedReplicas >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server never evicted %d replicas", n)
}
