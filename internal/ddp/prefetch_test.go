package ddp_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pgti/internal/ddp"
	"pgti/internal/metrics"
	"pgti/internal/shard"
	"pgti/internal/trace"
)

// TestPrefetchMatchesSerialBitwise: the double-buffered collator must leave
// DDP curves bitwise identical to the serial assembly path at every worker
// count, with and without a modeled collation cost.
func TestPrefetchMatchesSerialBitwise(t *testing.T) {
	fw := testSetup(t, 90, 12, 3)
	run := func(workers int, prefetch bool, asm func(int) time.Duration) metrics.Curve {
		res, err := fw.train(shard.Config{
			Replicas: workers, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 7,
			Prefetch: prefetch, AssembleCost: asm,
		})
		if err != nil {
			t.Fatalf("W=%d prefetch=%v: %v", workers, prefetch, err)
		}
		return res.Curve
	}
	asm := func(int) time.Duration { return time.Millisecond }
	for _, workers := range []int{1, 2, 4} {
		serial := run(workers, false, nil)
		for _, cost := range []func(int) time.Duration{nil, asm} {
			pipelined := run(workers, true, cost)
			if len(pipelined) != len(serial) {
				t.Fatalf("W=%d: curve length %d vs %d", workers, len(pipelined), len(serial))
			}
			for i := range serial {
				if pipelined[i] != serial[i] {
					t.Fatalf("W=%d epoch %d: prefetch curve %+v != serial %+v",
						workers, i, pipelined[i], serial[i])
				}
			}
		}
	}
}

// TestPrefetchHidesAssemblyDDP: under a modeled clock, the pipeline exposes
// only each epoch's leading assembly while the serial path pays one per
// step.
func TestPrefetchHidesAssemblyDDP(t *testing.T) {
	fw := testSetup(t, 90, 12, 3)
	asm := func(int) time.Duration { return time.Millisecond }
	run := func(prefetch bool) *shard.Result {
		res, err := fw.train(shard.Config{
			Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 7,
			ComputeCost:  func(int) time.Duration { return 2 * time.Millisecond },
			AssembleCost: asm, Prefetch: prefetch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(false)
	pipelined := run(true)
	if pipelined.VirtualTime >= serial.VirtualTime {
		t.Fatalf("prefetch did not shrink the modeled epoch: %v vs serial %v",
			pipelined.VirtualTime, serial.VirtualTime)
	}
	stepsPerEpoch := serial.Steps
	if hidden, want := serial.VirtualTime-pipelined.VirtualTime, time.Duration(stepsPerEpoch-1)*asm(4); hidden != want {
		t.Fatalf("pipeline hid %v of assembly, want %v (%d steps)", hidden, want, stepsPerEpoch)
	}
}

// TestAssembleCostChargedOnMeasuredClock: the modeled collation cost is
// charged whether or not compute is modeled too. The retired flat-world loop
// dropped it on its flatten path (every single-worker run, every
// GradAlgoFlat run) whenever ComputeCost was nil; the serial path must pay
// one assembly ahead of every step on either sync schedule.
func TestAssembleCostChargedOnMeasuredClock(t *testing.T) {
	fw := testSetup(t, 60, 6, 3)
	const asm = 20 * time.Millisecond
	for _, cfg := range []shard.Config{
		{Replicas: 1},
		{Replicas: 2, Algo: ddp.GradAlgoFlat},
		{Replicas: 2},
	} {
		cfg.BatchSize, cfg.Epochs, cfg.LR, cfg.Seed = 4, 1, 0.02, 7
		cfg.AssembleCost = func(int) time.Duration { return asm }
		res, err := fw.train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if min := time.Duration(res.Steps) * asm; res.VirtualTime < min {
			t.Fatalf("W=%d algo=%v: virtual time %v below %d steps x %v of assembly", cfg.Replicas, cfg.Algo, res.VirtualTime, res.Steps, asm)
		}
	}
}

// TestEvalAssemblyOverlapsLastStep pins the exact exposure arithmetic of
// the eval tail-overlap: the epoch's last train step hides the FIRST eval
// batch's assembly, charging max(step, AssembleCost(len(evalBatches[0]))).
// The fixture inverts the usual cost relation (assembly > compute) so the
// eval term is the binding one, and trims the splits so every quantity in
// the closed form is known:
//
//	train = 56 indices -> 14 batches of 4; val = 3 indices -> 1 batch of 3
//	C = ComputeCost = 1ms, asm(n) = n*1ms
//
// With one worker every collective is free, so the modeled epoch is exactly
//
//	asm(4)              pipeline fill (leading assembly, exposed)
//	+ 13 * max(C, asm(4))  steps 0..12 hide the next train batch: 4ms each
//	+ max(C, asm(3))       step 13 hides the first EVAL batch: 3ms
//	= 4 + 52 + 3 = 59ms
//
// which distinguishes the contract from every neighbouring semantics: no
// eval overlap would give 57ms (last step charges C), pricing the train
// batch size would give 60ms, and additive (step+asm) charging would give
// 60ms. The serial path pays 14*(C+asm(4)) = 70ms. Also asserts the
// "assemble.eval" span renders once per epoch at the eval batch's cost.
func TestEvalAssemblyOverlapsLastStep(t *testing.T) {
	fw := testSetup(t, 90, 12, 3)
	fw.split.Train = fw.split.Train[:56]
	fw.split.Val = fw.split.Val[:3]
	asm := func(items int) time.Duration { return time.Duration(items) * time.Millisecond }
	run := func(prefetch bool, rec *trace.Recorder) *shard.Result {
		res, err := fw.train(shard.Config{
			Replicas: 1, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 7,
			ComputeCost:  func(int) time.Duration { return time.Millisecond },
			AssembleCost: asm, Prefetch: prefetch, Trace: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := trace.New()
	pipelined := run(true, rec)
	if want := 2 * 59 * time.Millisecond; pipelined.VirtualTime != want {
		t.Fatalf("pipelined modeled clock %v, want exactly %v", pipelined.VirtualTime, want)
	}
	serial := run(false, nil)
	if want := 2 * 70 * time.Millisecond; serial.VirtualTime != want {
		t.Fatalf("serial modeled clock %v, want exactly %v", serial.VirtualTime, want)
	}
	evalSpans := 0
	for _, sp := range rec.Snapshot().Spans {
		if sp.Name != "assemble.eval" {
			continue
		}
		evalSpans++
		if sp.Dur != asm(3) {
			t.Fatalf("assemble.eval span lasts %v, want %v (first eval batch has 3 items)", sp.Dur, asm(3))
		}
	}
	if evalSpans != 2 {
		t.Fatalf("%d assemble.eval spans, want one per epoch (2)", evalSpans)
	}
}

// TestPrefetchCancellationDrainsDDP: a cancelled pipelined run returns the
// partial curve and reaps every collator goroutine.
func TestPrefetchCancellationDrainsDDP(t *testing.T) {
	fw := testSetup(t, 90, 12, 3)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := fw.train(shard.Config{
		Replicas: 2, BatchSize: 4, Epochs: 6, LR: 0.02, Seed: 7,
		Prefetch: true, Ctx: ctx,
		OnEpoch: func(rec metrics.EpochRecord) {
			if rec.Epoch == 0 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("run did not report cancellation")
	}
	if len(res.Curve) != 1 {
		t.Fatalf("partial curve has %d epochs, want 1", len(res.Curve))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before Train, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
