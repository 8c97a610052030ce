package stream

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pgti/internal/core"
	"pgti/internal/dataset"
)

// TestRetrainRetriesFailedRound: a round whose Fit dies retries on a fresh
// engine over the same window; the retry's modeled backoff lands in the
// round, the weights publish exactly once, and later rounds are untouched.
func TestRetrainRetriesFailedRound(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	base := modeledBase(1, 1)
	base.Epochs = 1
	src, err := NewSource(meta, base.Seed, Options{Window: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	swaps := 0
	rt, err := NewRetrainer(src, RetrainConfig{
		Base: base, Window: 64, Advance: 64, Rounds: 2,
		MaxRetries: 2, RetryBackoff: 3 * time.Millisecond,
		Swap: func(*core.Engine) error { swaps++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rt.fit = func(ctx context.Context, cfg core.Config) (*core.Engine, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("injected fit failure")
		}
		return fitOnce(ctx, cfg)
	}

	rounds, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rounds))
	}
	if rounds[0].Attempts != 2 || rounds[0].RetryDelay != 3*time.Millisecond {
		t.Errorf("round 0 attempts=%d delay=%v, want 2 attempts with one 3ms backoff",
			rounds[0].Attempts, rounds[0].RetryDelay)
	}
	if rounds[1].Attempts != 1 || rounds[1].RetryDelay != 0 {
		t.Errorf("round 1 attempts=%d delay=%v, want a clean single attempt", rounds[1].Attempts, rounds[1].RetryDelay)
	}
	if swaps != 2 {
		t.Errorf("swap ran %d times, want once per completed round (failed attempts never publish)", swaps)
	}
}

// TestRetrainExhaustedRetriesKeepsHistory: when every attempt fails, Run
// surfaces the error without releasing any window history — the failed
// round's window is fully intact for an operator retry.
func TestRetrainExhaustedRetriesKeepsHistory(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	base := modeledBase(1, 1)
	base.Epochs = 1
	src, err := NewSource(meta, base.Seed, Options{Window: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rt, err := NewRetrainer(src, RetrainConfig{
		Base: base, Window: 64, Advance: 64, Rounds: 2, MaxRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rt.fit = func(context.Context, core.Config) (*core.Engine, error) {
		calls++
		return nil, errors.New("injected fit failure")
	}

	rounds, err := rt.Run(context.Background())
	if err == nil || len(rounds) != 0 {
		t.Fatalf("run = %d rounds, err %v; want 0 rounds and the fit error", len(rounds), err)
	}
	if calls != 2 {
		t.Errorf("fit attempts = %d, want 2 (1 + MaxRetries)", calls)
	}
	if lo, _ := src.Retained(); lo != 0 {
		t.Errorf("failed round released history up to %d; the window must stay intact", lo)
	}
}

// TestRetrainCancelledDuringRetryReturnsImmediately: cancellation is the
// caller's decision, not a fault — no retry budget is spent on it, and
// nothing leaks when the run is torn down mid-round.
func TestRetrainCancelledDuringRetryReturnsImmediately(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	baseline := runtime.NumGoroutine()
	base := modeledBase(1, 1)
	base.Epochs = 1
	src, err := NewSource(meta, base.Seed, Options{Window: 200})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetrainer(src, RetrainConfig{
		Base: base, Window: 64, Advance: 64, Rounds: 2, MaxRetries: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	rt.fit = func(ctx context.Context, cfg core.Config) (*core.Engine, error) {
		calls++
		cancel() // the caller gives up while the attempt is in flight
		return nil, ctx.Err()
	}

	rounds, err := rt.Run(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want a wrapped context.Canceled", err)
	}
	if len(rounds) != 0 {
		t.Fatalf("rounds = %d, want 0", len(rounds))
	}
	if calls != 1 {
		t.Errorf("fit attempts = %d, want 1 — cancellation must not be retried", calls)
	}
	src.Close()
	waitGoroutines(t, baseline)
}
