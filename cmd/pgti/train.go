package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"

	"pgti"
)

var strategies = map[string]pgti.Strategy{
	"baseline":       pgti.StrategyBaseline,
	"index":          pgti.StrategyIndex,
	"gpu-index":      pgti.StrategyGPUIndex,
	"baseline-ddp":   pgti.StrategyBaselineDDP,
	"dist-index":     pgti.StrategyDistIndex,
	"gen-dist-index": pgti.StrategyGenDistIndex,
}

var models = map[string]pgti.Model{
	"pgt-dcrnn": pgti.ModelPGTDCRNN,
	"dcrnn":     pgti.ModelDCRNN,
	"a3tgcn":    pgti.ModelA3TGCN,
	"st-llm":    pgti.ModelSTLLM,
}

var shuffles = map[string]pgti.Shuffle{
	"global": pgti.ShuffleGlobal,
	"local":  pgti.ShuffleLocal,
	"batch":  pgti.ShuffleBatch,
}

// runTrain trains a spatiotemporal model with any of the paper's six
// strategies on any of its six datasets (synthetic stand-ins at a
// configurable scale), driving the staged Experiment API: epochs stream live
// as they complete, Ctrl-C cancels cleanly mid-epoch (printing the partial
// curve), and -save/-resume persist and restore the full training state.
func runTrain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("train", "", stderr)
	s := sharedFlags{dataset: "Chickenpox-Hungary", scale: 1, epochs: 10, seed: 1,
		workers: 1, batch: 32, lr: 0.01, hidden: 16, k: 2}
	s.register(fs, "dataset", "scale", "epochs", "seed", "workers", "shards", "batch", "lr", "hidden", "k", "trace")
	strategy := fs.String("strategy", "index", "strategy: "+sortedKeys(strategies))
	model := fs.String("model", "pgt-dcrnn", "model: "+sortedKeys(models))
	shuffle := fs.String("shuffle", "", "distributed shuffling: "+sortedKeys(shuffles)+" (empty = strategy default)")
	scaleLR := fs.Bool("scale-lr", false, "apply linear LR scaling for large global batches")
	sysMem := fs.Float64("sysmem", 0, "system memory cap in GB (0 = unlimited)")
	gpuMem := fs.Float64("gpumem", 0, "GPU memory cap in GB (0 = unlimited)")
	missing := fs.Float64("missing", 0, "fraction of sensor readings to drop (masked-MAE training; single-GPU strategies only)")
	load := fs.String("load", "", "checkpoint to warm-start parameters from")
	resume := fs.String("resume", "", "train-state checkpoint to resume deterministically from")
	save := fs.String("save", "", "train-state checkpoint to write after training")
	forecast := fs.Int("forecast", 0, "print predictions for the first N test windows")
	quiet := fs.Bool("quiet", false, "suppress the live per-epoch stream")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the deterministic fault plan (with -crash-rank/-straggler-rank)")
	crashRank := fs.Int("crash-rank", -1, "crash this rank on the virtual clock (-1 = no crash)")
	crashAt := fs.Duration("crash-at", 0, "virtual time at which -crash-rank dies")
	stragRank := fs.Int("straggler-rank", -1, "slow this rank's modeled compute (-1 = no straggler)")
	stragFactor := fs.Float64("straggler-factor", 2, "compute slowdown factor for -straggler-rank")
	stragFrom := fs.Duration("straggler-from", 0, "virtual start of the straggler window")
	stragUntil := fs.Duration("straggler-until", 0, "virtual end of the straggler window")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "pgti train: "+format+"\n", args...)
		return code
	}

	strat, ok := strategies[*strategy]
	if !ok {
		return fail(2, "unknown strategy %q (options: %s)", *strategy, sortedKeys(strategies))
	}
	mdl, ok := models[*model]
	if !ok {
		return fail(2, "unknown model %q (options: %s)", *model, sortedKeys(models))
	}

	opts := []pgti.Option{
		pgti.WithScale(s.scale),
		pgti.WithStrategy(strat),
		pgti.WithModel(mdl),
		pgti.WithWorkers(s.workers),
		pgti.WithBatchSize(s.batch),
		pgti.WithEpochs(s.epochs),
		pgti.WithLR(s.lr),
		pgti.WithHidden(s.hidden),
		pgti.WithDiffusionSteps(s.k),
		pgti.WithSeed(s.seed),
		pgti.WithMemoryCaps(*sysMem, *gpuMem),
		pgti.WithMissingData(*missing),
		pgti.WithWarmStart(*load), // "" and 0 (or less) are the defaults
		pgti.WithResume(*resume),
		pgti.WithSaveCheckpoint(*save),
		pgti.WithForecasts(*forecast),
	}
	if *shuffle != "" {
		shf, ok := shuffles[*shuffle]
		if !ok {
			return fail(2, "unknown shuffle %q (options: %s)", *shuffle, sortedKeys(shuffles))
		}
		opts = append(opts, pgti.WithShuffle(shf))
	}
	if *scaleLR {
		opts = append(opts, pgti.WithLRScaling())
	}
	if s.shards > 1 {
		opts = append(opts, pgti.WithSpatial(s.shards))
	}
	var faults []pgti.FaultOption
	if *crashRank >= 0 {
		faults = append(faults, pgti.FaultCrash(*crashRank, *crashAt))
	}
	if *stragRank >= 0 {
		faults = append(faults, pgti.FaultStraggler(*stragRank, *stragFactor, *stragFrom, *stragUntil))
	}
	if len(faults) > 0 {
		opts = append(opts, pgti.WithFaultPlan(*faultSeed, faults...))
	}
	var rec *pgti.TraceRecorder
	if s.trace != "" {
		rec = pgti.NewTraceRecorder()
		opts = append(opts, pgti.WithTrace(rec))
	}
	if !*quiet {
		header := false
		opts = append(opts, pgti.WithEvents(func(ev pgti.Event) {
			switch e := ev.(type) {
			case pgti.EpochEvent:
				if !header {
					fmt.Fprintf(stdout, "%5s %14s %14s\n", "epoch", "train MAE", "val MAE")
					header = true
				}
				fmt.Fprintf(stdout, "%5d %14.6f %14.6f\n", e.Epoch, e.TrainMAE, e.ValMAE)
			case pgti.AutotuneEvent:
				fmt.Fprintf(stdout, "      autotune locked gradient buckets at %s\n", pgti.FormatBytes(e.BucketBytes))
			}
		}))
	}

	exp, err := pgti.NewExperiment(s.dataset, opts...)
	if err != nil {
		return fail(2, "%v", err)
	}

	// Ctrl-C cancels mid-epoch; the partial curve still prints below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := exp.Fit(ctx)
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled && !(rep != nil && rep.OOM) {
		return fail(1, "%v", err)
	}
	if err == nil {
		if rep, err = exp.Eval(); err != nil {
			return fail(1, "eval: %v", err)
		}
	}

	fmt.Fprintf(stdout, "dataset=%s strategy=%v model=%v workers=%d global-batch=%d\n",
		rep.Dataset, rep.Strategy, rep.Model, rep.Workers, rep.GlobalBatch)
	if rep.OOM {
		fmt.Fprintf(stdout, "OUT OF MEMORY: %s\n", rep.OOMError)
		fmt.Fprintf(stdout, "peak system memory: %s\n", pgti.FormatBytes(rep.PeakSystemBytes))
		return 3
	}
	if cancelled {
		fmt.Fprintf(stdout, "CANCELLED after %d completed epoch(s), %d steps\n", len(rep.Curve), rep.Steps)
	}
	if *quiet {
		fmt.Fprintf(stdout, "%5s %14s %14s\n", "epoch", "train MAE", "val MAE")
		for _, r := range rep.Curve {
			fmt.Fprintf(stdout, "%5d %14.6f %14.6f\n", r.Epoch, r.TrainMAE, r.ValMAE)
		}
	}
	if len(rep.Curve) > 0 {
		fmt.Fprintf(stdout, "best val MAE %.6f | test MSE %.6f | steps %d\n", rep.Curve.BestVal(), rep.TestMSE, rep.Steps)
	} else {
		fmt.Fprintf(stdout, "no epochs completed | steps %d\n", rep.Steps)
	}
	fmt.Fprintf(stdout, "wall %v | virtual (modeled Polaris) %v | comm %v\n",
		rep.WallTime.Round(1e6), rep.VirtualTime.Round(1e6), rep.CommTime.Round(1e6))
	if rep.Recoveries > 0 {
		fmt.Fprintf(stdout, "recoveries %d | modeled recovery time %v | surviving workers %d\n",
			rep.Recoveries, rep.RecoveryTime.Round(1e6), rep.Workers)
	}
	fmt.Fprintf(stdout, "peak system %s | peak GPU %s | retained data %s\n",
		pgti.FormatBytes(rep.PeakSystemBytes), pgti.FormatBytes(rep.PeakGPUBytes), pgti.FormatBytes(rep.RetainedDataBytes))
	if rec != nil {
		if err := pgti.WriteTraceFile(s.trace, rec); err != nil {
			return fail(1, "trace: %v", err)
		}
		if t := rep.Trace; t != nil {
			fmt.Fprintf(stdout, "trace: %d spans across %d workers -> %s\n", t.Spans, t.Workers, s.trace)
		}
	}
	for _, f := range rep.Forecasts {
		fmt.Fprintf(stdout, "forecast for test window %d (MAE %.3f):\n", f.SnapshotIndex, f.MAE())
		steps := min(f.Horizon, 3) // print the first few steps
		nodes := min(f.Nodes, 6)
		for t := 0; t < steps; t++ {
			fmt.Fprintf(stdout, "  t+%d pred:", t+1)
			for n := 0; n < nodes; n++ {
				fmt.Fprintf(stdout, " %7.2f", f.Pred[t*f.Nodes+n])
			}
			fmt.Fprintf(stdout, "   actual:")
			for n := 0; n < nodes; n++ {
				fmt.Fprintf(stdout, " %7.2f", f.Actual[t*f.Nodes+n])
			}
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
