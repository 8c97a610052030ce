// Command pgti-train trains a spatiotemporal model with any of the paper's
// six strategies on any of its six datasets (synthetic stand-ins at a
// configurable scale), driving the staged Experiment API: epochs stream
// live as they complete, Ctrl-C cancels cleanly mid-epoch (printing the
// partial curve), and -save/-resume persist and restore the full training
// state.
//
// Examples:
//
//	pgti-train -dataset Chickenpox-Hungary -epochs 20
//	pgti-train -dataset PeMS-BAY -scale 0.05 -strategy dist-index -workers 4
//	pgti-train -dataset PeMS-BAY -scale 0.02 -strategy baseline -sysmem 0.05
//	pgti-train -dataset PeMS-BAY -scale 0.05 -epochs 8 -save run.pgtc
//	pgti-train -dataset PeMS-BAY -scale 0.05 -epochs 16 -resume run.pgtc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

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

func keys[M ~map[string]V, V any](m M) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return strings.Join(out, "|")
}

func main() {
	ds := flag.String("dataset", "Chickenpox-Hungary", "dataset: "+strings.Join(pgti.Datasets(), "|"))
	scale := flag.Float64("scale", 1, "dataset scale factor (0,1]")
	strategy := flag.String("strategy", "index", "strategy: "+keys(strategies))
	model := flag.String("model", "pgt-dcrnn", "model: "+keys(models))
	shuffle := flag.String("shuffle", "", "distributed shuffling: "+keys(shuffles)+" (empty = strategy default)")
	workers := flag.Int("workers", 1, "workers for distributed strategies")
	shards := flag.Int("shards", 0, "spatial graph shards (>1 enables the 2D spatial x data grid)")
	batch := flag.Int("batch", 32, "per-worker batch size")
	epochs := flag.Int("epochs", 10, "total training epochs (resume counts from epoch 0)")
	lr := flag.Float64("lr", 0.01, "learning rate")
	scaleLR := flag.Bool("scale-lr", false, "apply linear LR scaling for large global batches")
	hidden := flag.Int("hidden", 16, "hidden units")
	k := flag.Int("k", 2, "diffusion hops")
	seed := flag.Uint64("seed", 1, "random seed")
	sysMem := flag.Float64("sysmem", 0, "system memory cap in GB (0 = unlimited)")
	gpuMem := flag.Float64("gpumem", 0, "GPU memory cap in GB (0 = unlimited)")
	missing := flag.Float64("missing", 0, "fraction of sensor readings to drop (masked-MAE training; single-GPU strategies only)")
	load := flag.String("load", "", "checkpoint to warm-start parameters from")
	resume := flag.String("resume", "", "train-state checkpoint to resume deterministically from")
	save := flag.String("save", "", "train-state checkpoint to write after training")
	forecast := flag.Int("forecast", 0, "print predictions for the first N test windows")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load at ui.perfetto.dev)")
	quiet := flag.Bool("quiet", false, "suppress the live per-epoch stream")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault plan (with -crash-rank/-straggler-rank)")
	crashRank := flag.Int("crash-rank", -1, "crash this rank on the virtual clock (-1 = no crash)")
	crashAt := flag.Duration("crash-at", 0, "virtual time at which -crash-rank dies")
	stragRank := flag.Int("straggler-rank", -1, "slow this rank's modeled compute (-1 = no straggler)")
	stragFactor := flag.Float64("straggler-factor", 2, "compute slowdown factor for -straggler-rank")
	stragFrom := flag.Duration("straggler-from", 0, "virtual start of the straggler window")
	stragUntil := flag.Duration("straggler-until", 0, "virtual end of the straggler window")
	flag.Parse()

	strat, ok := strategies[*strategy]
	if !ok {
		fmt.Fprintf(os.Stderr, "pgti-train: unknown strategy %q (options: %s)\n", *strategy, keys(strategies))
		os.Exit(2)
	}
	mdl, ok := models[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "pgti-train: unknown model %q (options: %s)\n", *model, keys(models))
		os.Exit(2)
	}

	opts := []pgti.Option{
		pgti.WithScale(*scale),
		pgti.WithStrategy(strat),
		pgti.WithModel(mdl),
		pgti.WithWorkers(*workers),
		pgti.WithBatchSize(*batch),
		pgti.WithEpochs(*epochs),
		pgti.WithLR(*lr),
		pgti.WithHidden(*hidden),
		pgti.WithDiffusionSteps(*k),
		pgti.WithSeed(*seed),
		pgti.WithMemoryCaps(*sysMem, *gpuMem),
		pgti.WithMissingData(*missing),
	}
	if *shuffle != "" {
		shf, ok := shuffles[*shuffle]
		if !ok {
			fmt.Fprintf(os.Stderr, "pgti-train: unknown shuffle %q (options: %s)\n", *shuffle, keys(shuffles))
			os.Exit(2)
		}
		opts = append(opts, pgti.WithShuffle(shf))
	}
	if *scaleLR {
		opts = append(opts, pgti.WithLRScaling())
	}
	if *shards > 1 {
		opts = append(opts, pgti.WithSpatial(*shards))
	}
	if *load != "" {
		opts = append(opts, pgti.WithWarmStart(*load))
	}
	if *resume != "" {
		opts = append(opts, pgti.WithResume(*resume))
	}
	if *save != "" {
		opts = append(opts, pgti.WithSaveCheckpoint(*save))
	}
	if *forecast > 0 {
		opts = append(opts, pgti.WithForecasts(*forecast))
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
	if *traceOut != "" {
		rec = pgti.NewTraceRecorder()
		opts = append(opts, pgti.WithTrace(rec))
	}
	if !*quiet {
		header := false
		opts = append(opts, pgti.WithEvents(func(ev pgti.Event) {
			switch e := ev.(type) {
			case pgti.EpochEvent:
				if !header {
					fmt.Printf("%5s %14s %14s\n", "epoch", "train MAE", "val MAE")
					header = true
				}
				fmt.Printf("%5d %14.6f %14.6f\n", e.Epoch, e.TrainMAE, e.ValMAE)
			case pgti.AutotuneEvent:
				fmt.Printf("      autotune locked gradient buckets at %s\n", pgti.FormatBytes(e.BucketBytes))
			}
		}))
	}

	exp, err := pgti.NewExperiment(*ds, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgti-train: %v\n", err)
		os.Exit(2)
	}

	// Ctrl-C cancels mid-epoch; the partial curve still prints below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := exp.Fit(ctx)
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled && !(rep != nil && rep.OOM) {
		fmt.Fprintf(os.Stderr, "pgti-train: %v\n", err)
		os.Exit(1)
	}
	if err == nil {
		if rep, err = exp.Eval(); err != nil {
			fmt.Fprintf(os.Stderr, "pgti-train: eval: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("dataset=%s strategy=%v model=%v workers=%d global-batch=%d\n",
		rep.Dataset, rep.Strategy, rep.Model, rep.Workers, rep.GlobalBatch)
	if rep.OOM {
		fmt.Printf("OUT OF MEMORY: %s\n", rep.OOMError)
		fmt.Printf("peak system memory: %s\n", pgti.FormatBytes(rep.PeakSystemBytes))
		os.Exit(3)
	}
	if cancelled {
		fmt.Printf("CANCELLED after %d completed epoch(s), %d steps\n", len(rep.Curve), rep.Steps)
	}
	if *quiet {
		fmt.Printf("%5s %14s %14s\n", "epoch", "train MAE", "val MAE")
		for _, r := range rep.Curve {
			fmt.Printf("%5d %14.6f %14.6f\n", r.Epoch, r.TrainMAE, r.ValMAE)
		}
	}
	if len(rep.Curve) > 0 {
		fmt.Printf("best val MAE %.6f | test MSE %.6f | steps %d\n", rep.Curve.BestVal(), rep.TestMSE, rep.Steps)
	} else {
		fmt.Printf("no epochs completed | steps %d\n", rep.Steps)
	}
	fmt.Printf("wall %v | virtual (modeled Polaris) %v | comm %v\n",
		rep.WallTime.Round(1e6), rep.VirtualTime.Round(1e6), rep.CommTime.Round(1e6))
	if rep.Recoveries > 0 {
		fmt.Printf("recoveries %d | modeled recovery time %v | surviving workers %d\n",
			rep.Recoveries, rep.RecoveryTime.Round(1e6), rep.Workers)
	}
	fmt.Printf("peak system %s | peak GPU %s | retained data %s\n",
		pgti.FormatBytes(rep.PeakSystemBytes), pgti.FormatBytes(rep.PeakGPUBytes), pgti.FormatBytes(rep.RetainedDataBytes))
	if rec != nil {
		if err := pgti.WriteTraceFile(*traceOut, rec); err != nil {
			fmt.Fprintf(os.Stderr, "pgti-train: trace: %v\n", err)
			os.Exit(1)
		}
		if s := rep.Trace; s != nil {
			fmt.Printf("trace: %d spans across %d workers -> %s\n", s.Spans, s.Workers, *traceOut)
		}
	}
	for _, f := range rep.Forecasts {
		fmt.Printf("forecast for test window %d (MAE %.3f):\n", f.SnapshotIndex, f.MAE())
		steps := f.Horizon
		if steps > 3 {
			steps = 3 // print the first few steps
		}
		nodes := f.Nodes
		if nodes > 6 {
			nodes = 6
		}
		for t := 0; t < steps; t++ {
			fmt.Printf("  t+%d pred:", t+1)
			for n := 0; n < nodes; n++ {
				fmt.Printf(" %7.2f", f.Pred[t*f.Nodes+n])
			}
			fmt.Printf("   actual:")
			for n := 0; n < nodes; n++ {
				fmt.Printf(" %7.2f", f.Actual[t*f.Nodes+n])
			}
			fmt.Println()
		}
	}
}
