package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/fault"
	"pgti/internal/shard"
	"pgti/internal/trace"
)

// faultCfg is a small fully-modeled distributed config: with ComputeCost and
// AssembleCost pinned, curve AND virtual clock are pure functions of the
// configuration — which is what every assertion below leans on.
func faultCfg(workers, shards int) Config {
	meta, _ := dataset.ByName("Chickenpox-Hungary")
	cfg := Config{
		Meta:      meta,
		Scale:     0.4,
		Model:     ModelPGTDCRNN,
		Strategy:  DistIndex,
		Workers:   workers,
		BatchSize: 4,
		Epochs:    2,
		Hidden:    8,
		K:         1,
		Seed:      3,
		AssembleCost: func(items int) time.Duration {
			return time.Duration(items) * 25 * time.Microsecond
		},
		ComputeCost: func(items int) time.Duration {
			return 2 * time.Millisecond
		},
	}
	if shards > 1 {
		cfg.Spatial = shard.Spatial{Shards: shards}
	}
	return cfg
}

// TestArmedEmptyFaultPlanIsBitwiseNoop: a plan that schedules nothing is
// contractually indistinguishable from no plan at all — curve and modeled
// clock — across the sync matrix (flat DDP at W=2 and W=4, 2x2 hybrid).
func TestArmedEmptyFaultPlanIsBitwiseNoop(t *testing.T) {
	for _, grid := range []struct{ workers, shards int }{{2, 1}, {4, 1}, {2, 2}} {
		ref, err := Run(faultCfg(grid.workers, grid.shards))
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultCfg(grid.workers, grid.shards)
		cfg.Faults = fault.New(7)
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%dx%d: %v", grid.workers, grid.shards, err)
		}
		if !reflect.DeepEqual(got.Curve, ref.Curve) {
			t.Errorf("%dx%d: armed-but-empty plan changed the curve", grid.workers, grid.shards)
		}
		if got.VirtualTime != ref.VirtualTime {
			t.Errorf("%dx%d: armed-but-empty plan moved the clock: %v vs %v",
				grid.workers, grid.shards, got.VirtualTime, ref.VirtualTime)
		}
		if got.Recoveries != 0 || got.RecoveryTime != 0 {
			t.Errorf("%dx%d: phantom recoveries %d/%v", grid.workers, grid.shards, got.Recoveries, got.RecoveryTime)
		}
	}
}

// TestFaultScheduleIsDeterministic: the same seed reproduces identical
// faults, recoveries, curves, and modeled clocks run to run — at W∈{2,4}
// flat and on the 2x2 hybrid grid.
func TestFaultScheduleIsDeterministic(t *testing.T) {
	for _, grid := range []struct{ workers, shards int }{{2, 1}, {4, 1}, {2, 2}} {
		world := grid.workers
		if grid.shards > 1 {
			world *= grid.shards
		}
		run := func() (*Report, []RecoveryEvent) {
			cfg := faultCfg(grid.workers, grid.shards)
			cfg.Faults = fault.New(11,
				fault.Crash(world-1, 8*time.Millisecond),
				fault.Slow(0, 2.0, 0, 20*time.Millisecond),
				fault.Degrade(1.5, 0, 10*time.Millisecond),
			)
			var evs []RecoveryEvent
			cfg.Events = func(e Event) {
				if r, ok := e.(RecoveryEvent); ok {
					evs = append(evs, r)
				}
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%dx%d: %v", grid.workers, grid.shards, err)
			}
			return rep, evs
		}
		a, evA := run()
		b, evB := run()
		if a.Recoveries != 1 || a.RecoveryTime <= 0 {
			t.Errorf("%dx%d: recoveries %d time %v, want exactly 1 with positive overhead",
				grid.workers, grid.shards, a.Recoveries, a.RecoveryTime)
		}
		if len(a.Curve) != faultCfg(0, 0).Epochs {
			t.Errorf("%dx%d: curve has %d epochs after recovery, want the full budget", grid.workers, grid.shards, len(a.Curve))
		}
		if !reflect.DeepEqual(a.Curve, b.Curve) {
			t.Errorf("%dx%d: same seed, different curves", grid.workers, grid.shards)
		}
		if a.VirtualTime != b.VirtualTime || a.RecoveryTime != b.RecoveryTime {
			t.Errorf("%dx%d: same seed, different clocks: %v/%v vs %v/%v",
				grid.workers, grid.shards, a.VirtualTime, a.RecoveryTime, b.VirtualTime, b.RecoveryTime)
		}
		if !reflect.DeepEqual(evA, evB) {
			t.Errorf("%dx%d: same seed, different recovery events: %v vs %v", grid.workers, grid.shards, evA, evB)
		}
	}
}

// TestRecoveryMatchesFreshSurvivorRun is the recovery contract, observed
// end to end: a crash at virtual time zero rolls back to the initial
// snapshot and rebuilds the grid one worker smaller, so the whole recovered
// run IS a fresh run on the survivor grid — bitwise, with the modeled
// recovery overhead as the only clock difference.
func TestRecoveryMatchesFreshSurvivorRun(t *testing.T) {
	cfg := faultCfg(2, 1)
	cfg.Faults = fault.New(5, fault.Crash(1, 0))
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(faultCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", faulty.Recoveries)
	}
	if faulty.Workers != 1 {
		t.Errorf("post-recovery world = %d workers, want 1", faulty.Workers)
	}
	if !reflect.DeepEqual(faulty.Curve, fresh.Curve) {
		t.Errorf("recovered curve differs from a fresh run on the survivor grid:\n%v\nvs\n%v", faulty.Curve, fresh.Curve)
	}
	if got, want := faulty.VirtualTime, fresh.VirtualTime+faulty.RecoveryTime; got != want {
		t.Errorf("recovered clock %v, want fresh survivor clock %v + recovery overhead %v = %v",
			got, fresh.VirtualTime, faulty.RecoveryTime, want)
	}
}

// TestHybridReplicaLossMatchesFreshGrid: on a 2x2 grid a crash drops the
// dead rank's whole replica group; with the crash at time zero the recovered
// run is bitwise a fresh 1x2 run (partition untouched), plus the modeled
// recovery overhead on the clock.
func TestHybridReplicaLossMatchesFreshGrid(t *testing.T) {
	cfg := faultCfg(2, 2)
	cfg.Faults = fault.New(5, fault.Crash(3, 0)) // rank 3 = replica 1, shard 1
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(faultCfg(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", faulty.Recoveries)
	}
	if faulty.Workers != 2 {
		t.Errorf("post-recovery world = %d workers, want 2 (1 replica x 2 shards)", faulty.Workers)
	}
	if !reflect.DeepEqual(faulty.Curve, fresh.Curve) {
		t.Errorf("recovered hybrid curve differs from a fresh 1x2 run")
	}
	if got, want := faulty.VirtualTime, fresh.VirtualTime+faulty.RecoveryTime; got != want {
		t.Errorf("recovered clock %v, want %v", got, want)
	}
}

// TestHybridShardLossResplitsNodes: with a single replica a crash kills a
// spatial shard; the dead shard's nodes re-split across the survivors and
// training completes on the shrunken grid.
func TestHybridShardLossResplitsNodes(t *testing.T) {
	cfg := faultCfg(1, 3)
	cfg.Faults = fault.New(5, fault.Crash(1, 8*time.Millisecond))
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rep.Recoveries)
	}
	if rep.Workers != 2 {
		t.Errorf("post-recovery world = %d workers, want 2 shards", rep.Workers)
	}
	if len(rep.Curve) != cfg.Epochs {
		t.Errorf("curve has %d epochs, want %d", len(rep.Curve), cfg.Epochs)
	}
}

// TestUnrecoverableWorkerLossSavesCheckpoint is the write-on-abnormal-exit
// contract: when the survivors cannot form a legal grid, Fit fails with a
// typed *cluster.WorkerLostError — but SaveCheckpoint still receives the
// last consistent epoch state, and a Resume from it reproduces the
// fault-free run bitwise.
func TestUnrecoverableWorkerLossSavesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "interrupted.ckpt")
	cfg := faultCfg(2, 2)
	cfg.SaveCheckpoint = ckpt
	// Rank 0's crash drops replica 0 (ranks 0 and 1); the remaining crashes
	// land on both survivors, which no legal grid can absorb.
	cfg.Faults = fault.New(5,
		fault.Crash(0, 0),
		fault.Crash(2, 5*time.Millisecond),
		fault.Crash(3, 6*time.Millisecond),
	)
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("unrecoverable fault schedule did not fail")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("error %q does not name the unrecoverable exit", err)
	}
	var lost *cluster.WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatalf("error %v does not wrap *cluster.WorkerLostError", err)
	}

	resume := faultCfg(2, 2)
	resume.ResumeCheckpoint = ckpt
	resumed, err := Run(resume)
	if err != nil {
		t.Fatalf("resume from interrupted checkpoint: %v", err)
	}
	fresh, err := Run(faultCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Curve, fresh.Curve) {
		t.Errorf("resume from the interrupted checkpoint diverges from the fault-free run")
	}
}

// TestStragglerTriggersMeasuredRepartition (the skew-detection follow-up):
// an injected straggler inflates one shard's measured step time without
// changing its node share, so the structural load vector never reacts —
// Repartition.Measured feeds the measured charge instead and migrates.
func TestStragglerTriggersMeasuredRepartition(t *testing.T) {
	base := func() Config {
		cfg := faultCfg(1, 2)
		cfg.Repartition = shard.Repartition{ChunkSize: 3, Threshold: 1.5, Measured: true}
		cfg.Faults = fault.New(9, fault.Slow(0, 4.0, 0, time.Second))
		return cfg
	}

	measured, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	if measured.Repartitions == 0 {
		t.Errorf("measured load vector missed the injected straggler (0 repartitions)")
	}

	structural := base()
	structural.Repartition.Measured = false
	rep, err := Run(structural)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repartitions != 0 {
		t.Errorf("structural load vector repartitioned %d times on a balanced partition", rep.Repartitions)
	}

	calm := base()
	calm.Faults = nil
	rep, err = Run(calm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repartitions != 0 {
		t.Errorf("measured vector repartitioned %d times without any fault", rep.Repartitions)
	}
}

// TestRepartitionMigrationIsCharged: the elastic-repartition migration window
// is priced on the fabric the cluster actually runs on. The trainer used to
// price it on its unresolved Config.Net, which the engine leaves zero, so
// every repartition that arrived through core cost 0 ns. Each migration must
// last exactly the fabric's fetch time for the moved bytes, on every rank,
// and every rank's clock must have moved past it before its next step.
func TestRepartitionMigrationIsCharged(t *testing.T) {
	cfg := faultCfg(1, 2)
	cfg.Epochs = 3
	cfg.Repartition = shard.Repartition{ChunkSize: 3, Threshold: 1.5, Measured: true}
	cfg.Faults = fault.New(9, fault.Slow(0, 4.0, 0, time.Second))
	cfg.Trace = trace.New()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repartitions == 0 {
		t.Fatal("the straggler triggered no repartition")
	}
	spans := cfg.Trace.Snapshot().Spans
	windows := 0
	for _, mv := range spans {
		if mv.Kind != trace.KindRepartition {
			continue
		}
		windows++
		if want := cluster.SlingshotModel().FetchTime(mv.Bytes); mv.Dur != want || want <= 0 {
			t.Errorf("rank %d %s: %d B migrated in %v, want %v", mv.Worker, mv.Name, mv.Bytes, mv.Dur, want)
		}
		for _, sp := range spans {
			if sp.Worker == mv.Worker && sp.Kind == trace.KindStep && sp.Start >= mv.Start && sp.Start < mv.Start+mv.Dur {
				t.Errorf("rank %d: %s begins at %v inside the migration window [%v, %v)", sp.Worker, sp.Name, sp.Start, mv.Start, mv.Start+mv.Dur)
			}
		}
	}
	if windows != 2*rep.Repartitions {
		t.Errorf("%d migration windows for %d repartitions on 2 ranks", windows, rep.Repartitions)
	}
}

// TestDegradedLinkInflatesClock: a link-degradation window slows every
// modeled transfer, so the run's clock moves past the fault-free one while
// the curve stays bitwise identical (degraded links lose time, not data).
func TestDegradedLinkInflatesClock(t *testing.T) {
	ref, err := Run(faultCfg(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg(2, 1)
	cfg.Faults = fault.New(5, fault.Degrade(8.0, 0, time.Second))
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.VirtualTime <= ref.VirtualTime {
		t.Errorf("degraded run clock %v not past fault-free %v", slow.VirtualTime, ref.VirtualTime)
	}
	if !reflect.DeepEqual(slow.Curve, ref.Curve) {
		t.Errorf("link degradation changed the training curve")
	}
}
