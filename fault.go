package pgti

import (
	"time"

	"pgti/internal/cluster"
	"pgti/internal/core"
	"pgti/internal/fault"
)

// Fault injection: deterministic infrastructure faults on the modeled
// cluster, with elastic recovery.
//
//	exp, _ := pgti.NewExperiment("Chickenpox-Hungary",
//		pgti.WithStrategy(pgti.StrategyDistIndex), pgti.WithWorkers(4),
//		pgti.WithFaultPlan(42,
//			pgti.FaultCrash(2, 40*time.Millisecond),
//			pgti.FaultStraggler(1, 3.0, 0, 80*time.Millisecond)))
//	report, err := exp.Fit(ctx)
//	// report.Recoveries == 1; the curve continues on the survivor grid.
//
// A fault plan is a pure function of its seed and options: every worker
// holds an identical copy and agrees — on the virtual clock, without any
// out-of-band channel — on exactly which fault fires when. Crashes remove a
// rank from the grid; the survivors detect the loss (a modeled detection
// timeout is charged to every surviving clock), roll back to the last
// epoch-boundary snapshot, rebuild the grid one worker smaller (a hybrid
// grid drops the dead rank's replica group, or re-splits its spatial shard
// across the survivors), charge the modeled re-plan and state re-fill, emit
// a typed RecoveryEvent, and continue. The post-recovery curve is bitwise
// identical to a fresh run started from that snapshot on the surviving
// grid. Stragglers and degraded links don't change membership — they
// inflate modeled compute and transfer charges inside their windows, which
// is what makes them visible to WithRepartition's measured load vector.
//
// Everything is deterministic: the same seed reproduces the same faults,
// recoveries, and modeled clocks run to run, and a plan that schedules
// nothing is contractually indistinguishable from no plan at all.

// FaultOption schedules one fault (or overrides one plan parameter) inside
// WithFaultPlan.
type FaultOption = fault.Option

// FaultCrash schedules rank's crash at virtual time at. Ranks number the
// grid the plan is armed on (hybrid grids: rank = replica*shards + shard).
func FaultCrash(rank int, at time.Duration) FaultOption {
	return fault.Crash(rank, at)
}

// FaultStraggler inflates rank's modeled compute charges by factor for
// virtual times in [from, to). Factor must be >= 1.
func FaultStraggler(rank int, factor float64, from, to time.Duration) FaultOption {
	return fault.Slow(rank, factor, from, to)
}

// FaultLinkDegrade inflates every modeled transfer cost by factor for
// virtual times in [from, to). Factor must be >= 1.
func FaultLinkDegrade(factor float64, from, to time.Duration) FaultOption {
	return fault.Degrade(factor, from, to)
}

// FaultDetection overrides the modeled failure-detection timeout charged to
// every surviving clock when a crash is detected (default 250ms).
func FaultDetection(d time.Duration) FaultOption {
	return fault.Detection(d)
}

// FaultHorizon bounds the virtual-time range the FaultRandom* options draw
// fault times from (default 1s). It must precede the options it governs.
func FaultHorizon(d time.Duration) FaultOption {
	return fault.Horizon(d)
}

// FaultRandomCrashes draws n crashes with distinct ranks in [0, world) and
// times in [0, horizon) from the plan's seeded RNG.
func FaultRandomCrashes(n, world int) FaultOption {
	return fault.RandomCrashes(n, world)
}

// FaultRandomStragglers draws n straggler windows of the given factor and
// duration, with ranks in [0, world) and starts in [0, horizon), from the
// plan's seeded RNG.
func FaultRandomStragglers(n, world int, factor float64, dur time.Duration) FaultOption {
	return fault.RandomStragglers(n, world, factor, dur)
}

// WithFaultPlan arms a deterministic fault schedule on the run: seed and
// options fully determine which workers crash, straggle, or suffer degraded
// links, and when, on the virtual clock. Requires a distributed strategy.
// Recovery is automatic (see the package comment above); the run's report
// counts recoveries and their modeled overhead in Recoveries/RecoveryTime.
func WithFaultPlan(seed uint64, opts ...FaultOption) Option {
	return func(c *core.Config) { c.Faults = fault.New(seed, opts...) }
}

// RecoveryEvent fires after each elastic recovery from a scheduled worker
// crash (re-exported from the engine; see WithFaultPlan and WithEvents).
type RecoveryEvent = core.RecoveryEvent

// WorkerLostError is the typed detection record of one scheduled worker
// crash. Fit wraps it in the returned error when the remaining schedule
// leaves the run unrecoverable (fewer than one survivor, or every survivor
// also scheduled to die); recovered losses surface as RecoveryEvents
// instead. errors.As-compatible.
type WorkerLostError = cluster.WorkerLostError
