package stream

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/shard"
)

// modeledBase is a fully-modeled distributed config: with ComputeCost and
// AssembleCost set, curve AND virtual clock are bitwise reproducible.
func modeledBase(workers, shards int) core.Config {
	cfg := core.Config{
		Config: shard.Config{
			Replicas:  workers,
			BatchSize: 8,
			Epochs:    2,
			LR:        0.01,
			Seed:      42,
			Prefetch:  true,
			AssembleCost: func(items int) time.Duration {
				return time.Duration(items) * 25 * time.Microsecond
			},
			ComputeCost: func(items int) time.Duration {
				return 2 * time.Millisecond
			},
		},
		Model:    core.ModelPGTDCRNN,
		Strategy: core.DistIndex,
		Hidden:   8,
		K:        1,
	}
	if shards > 1 {
		cfg.Shards = shards
	}
	return cfg
}

// replayOnce streams the full dataset into one window and retrains on it.
func replayOnce(t *testing.T, meta dataset.Meta, base core.Config) *core.Report {
	t.Helper()
	src, err := NewSource(meta, base.Seed, Options{Window: meta.Entries, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rt, err := NewRetrainer(src, RetrainConfig{Base: base, Window: meta.Entries, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(rounds))
	}
	if lo, hi := rounds[0].Lo, rounds[0].Hi; lo != 0 || hi != meta.Entries {
		t.Fatalf("window [%d, %d), want [0, %d)", lo, hi, meta.Entries)
	}
	return rounds[0].Report
}

// The tentpole contract: a stream replaying the dataset in a single window
// reproduces the offline run bitwise — curve and modeled clock — across the
// sync matrix (flat DDP at W=1 and W=2, and the 2x2 hybrid grid).
func TestStreamReplayMatchesOfflineBitwise(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	cases := []struct {
		name            string
		workers, shards int
	}{
		{"ddp-w1", 1, 1},
		{"ddp-w2", 2, 1},
		{"hybrid-2x2", 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := modeledBase(tc.workers, tc.shards)
			offline := base
			offline.Meta = meta
			offRep, err := core.Run(offline)
			if err != nil {
				t.Fatal(err)
			}
			strRep := replayOnce(t, meta, base)
			if len(strRep.Curve) != len(offRep.Curve) {
				t.Fatalf("curve length %d, offline %d", len(strRep.Curve), len(offRep.Curve))
			}
			for i := range offRep.Curve {
				if strRep.Curve[i] != offRep.Curve[i] {
					t.Fatalf("epoch %d diverged: stream %+v offline %+v", i, strRep.Curve[i], offRep.Curve[i])
				}
			}
			if strRep.VirtualTime != offRep.VirtualTime {
				t.Fatalf("virtual clock diverged: stream %v offline %v", strRep.VirtualTime, offRep.VirtualTime)
			}
			if strRep.Steps != offRep.Steps {
				t.Fatalf("steps %d, offline %d", strRep.Steps, offRep.Steps)
			}
		})
	}
}

// Rolling retraining slides the window, warm-starts each round from the
// previous parameters, and publishes every round's fitted engine through Swap.
func TestRollingRetrainWarmStartAndSwap(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	base := modeledBase(1, 1)
	base.Epochs = 1
	src, err := NewSource(meta, base.Seed, Options{Window: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var swaps []*core.Engine
	rt, err := NewRetrainer(src, RetrainConfig{
		Base:    base,
		Window:  200,
		Advance: 100,
		Rounds:  3,
		Swap: func(eng *core.Engine) error {
			swaps = append(swaps, eng)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || len(swaps) != 3 {
		t.Fatalf("rounds %d swaps %d, want 3 and 3", len(rounds), len(swaps))
	}
	for k, r := range rounds {
		if r.Lo != k*100 || r.Hi != k*100+200 {
			t.Fatalf("round %d window [%d, %d)", k, r.Lo, r.Hi)
		}
		if !r.Swapped || r.Report == nil || len(r.Report.Curve) != 1 {
			t.Fatalf("round %d incomplete: %+v", k, r)
		}
		if swaps[k].Report() != r.Report {
			t.Fatalf("round %d published an engine other than the one it fitted", k)
		}
	}
	// Warm start carried state: round 1 must start from round 0's trained
	// parameters, so its snapshot differs from a cold round over the same
	// window.
	cold := RetrainConfig{Base: base, Window: 200, Advance: 100, Rounds: 2, Cold: true}
	src2, err := NewSource(meta, base.Seed, Options{Window: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	rtCold, err := NewRetrainer(src2, cold)
	if err != nil {
		t.Fatal(err)
	}
	coldRounds, err := rtCold.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm, coldRep := rounds[1].Report, coldRounds[1].Report; warm.Curve[0] == coldRep.Curve[0] {
		t.Fatalf("round 1 warm curve equals cold curve %+v — warm start not applied", warm.Curve[0])
	}
}

// The window statistics renormalize exactly as the window slides: after any
// number of advances they equal a from-scratch summation over the retained
// rows.
func TestSourceWindowStatsExact(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	src, err := NewSource(meta, 7, Options{Window: 16, Total: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Release(200) // free-running: let the window slide to the end
	if !src.WaitFor(200) {
		t.Fatal("stream ended early")
	}
	lo, hi := src.Retained()
	if hi != 200 || hi-lo != 16 {
		t.Fatalf("retained [%d, %d)", lo, hi)
	}
	ds, err := src.Materialize(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumsq float64
	for _, v := range ds.Data.Data() {
		sum += v
		sumsq += v * v
	}
	n := float64(len(ds.Data.Data()))
	wantMean := sum / n
	mean, std := src.Stats()
	if mean != wantMean {
		t.Fatalf("mean %v, fresh summation %v", mean, wantMean)
	}
	if std <= 0 {
		t.Fatalf("std %v", std)
	}
	if clock := src.IngestClock(); clock != 0 {
		t.Fatalf("ingest clock %v with zero interval", clock)
	}
}

// A materialized window is bitwise equal to the same rows of the offline
// dataset (the generators are the same code), and eviction/arrival bounds
// are enforced.
func TestMaterializeMatchesOfflineRows(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	off, err := dataset.Generate(meta, 42)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(meta, 42, Options{Window: 64, Interval: time.Minute, Total: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if !src.WaitFor(64) {
		t.Fatal("window never filled")
	}
	ds, err := src.Materialize(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	row := meta.Nodes * meta.RawFeatures
	want := off.Data.Data()[32*row : 64*row]
	for i, v := range ds.Data.Data() {
		if v != want[i] {
			t.Fatalf("value %d: stream %v offline %v", i, v, want[i])
		}
	}
	if ds.Graph != src.Graph() {
		t.Fatal("materialized window does not share the stream's graph")
	}
	// Releasing 100 lets the producer run to the backpressure bound
	// (released + window = 164), which forces eviction through row 99.
	src.Release(100)
	if !src.WaitFor(164) {
		t.Fatal("released stream stalled")
	}
	if _, err := src.Materialize(90, 120); err == nil || !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("materializing evicted rows: %v", err)
	}
	if _, err := src.Materialize(290, 301); err == nil {
		t.Fatal("materializing beyond the stream succeeded")
	}
	if clock := src.IngestClock(); clock < 150*time.Minute {
		t.Fatalf("ingest clock %v after %d arrivals", clock, 150)
	}
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (the ingest goroutine exits asynchronously after Close joins it,
// but test runners keep background goroutines, so allow the baseline).
func waitGoroutines(t *testing.T, baseline int) {
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

// Close mid-retrain: the producer may be parked on backpressure and the
// retrainer blocked in WaitFor; Close must wake both, fail the pending
// round, and leak nothing.
func TestCloseMidRetrainLeaksNothing(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	baseline := runtime.NumGoroutine()
	base := modeledBase(1, 1)
	base.Epochs = 1
	src, err := NewSource(meta, base.Seed, Options{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetrainer(src, RetrainConfig{
		Base:   base,
		Window: 64,
		Rounds: 2,
		// Swap runs before the round's history is released, so the producer
		// is still parked on the full ring: closing here guarantees round 1
		// can never fill.
		Swap: func(*core.Engine) error {
			src.Close()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := rt.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("run after mid-retrain close: %v", err)
	}
	if len(rounds) != 1 {
		t.Fatalf("completed rounds %d, want 1", len(rounds))
	}
	src.Close() // idempotent
	waitGoroutines(t, baseline)
}

// A consumer blocked in WaitFor on data that cannot arrive (full ring,
// nothing released) wakes with ok=false on Close.
func TestCloseUnblocksWaiters(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	baseline := runtime.NumGoroutine()
	src, err := NewSource(meta, 1, Options{Window: 16, Total: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !src.WaitFor(16) {
		t.Fatal("ring never filled")
	}
	got := make(chan bool, 1)
	go func() { got <- src.WaitFor(400) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	src.Close()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("WaitFor reported arrival after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor still blocked after close")
	}
	waitGoroutines(t, baseline)
}

// Option and config validation fails fast.
func TestValidation(t *testing.T) {
	meta := dataset.ChickenpoxHungary
	if _, err := NewSource(meta, 1, Options{Window: 3}); err == nil {
		t.Fatal("window below one snapshot accepted")
	}
	if _, err := NewSource(meta, 1, Options{Window: 16, Interval: -time.Second}); err == nil {
		t.Fatal("negative interval accepted")
	}
	src, err := NewSource(meta, 1, Options{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	base := modeledBase(1, 1)
	bad := []RetrainConfig{
		{Base: base, Window: 0},
		{Base: base, Window: 32},              // exceeds ring
		{Base: base, Window: 6},               // below one snapshot
		{Base: base, Window: 16, Rounds: 100}, // outlives the stream
	}
	for i, cfg := range bad {
		if _, err := NewRetrainer(src, cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
	withCkpt := base
	withCkpt.LoadCheckpoint = "x"
	if _, err := NewRetrainer(src, RetrainConfig{Base: withCkpt, Window: 16}); err == nil {
		t.Fatal("checkpointing base accepted")
	}
}
