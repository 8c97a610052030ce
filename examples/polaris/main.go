// Capacity planning with the calibrated Polaris model: estimate what every
// strategy costs on the full PeMS dataset at paper scale — which ones OOM a
// 512 GB node, how distributed-index-batching scales to 128 GPUs — without
// owning a supercomputer. This regenerates the headline numbers of the
// paper's Tables 2/4 and Fig. 7 through the public API, then closes the
// loop plan → train → serve: the planned configuration runs for real at
// laptop scale through the staged Experiment API and serves a forecast
// from its warm Predictor.
//
//	go run ./examples/polaris
package main

import (
	"context"
	"fmt"
	"log"

	"pgti"
)

func estimate(dataset string, opts ...pgti.Option) *pgti.PolarisEstimate {
	est, err := pgti.EstimatePolaris(dataset, opts...)
	if err != nil {
		log.Fatal(err)
	}
	return est
}

func main() {
	fmt.Println("== single GPU, full PeMS (419 GB after standard preprocessing) ==")
	for _, s := range []pgti.Strategy{pgti.StrategyBaseline, pgti.StrategyIndex, pgti.StrategyGPUIndex} {
		est := estimate("PeMS", pgti.WithStrategy(s), pgti.WithEpochs(30))
		status := fmt.Sprintf("%8.1f min | node %6.1f GiB | GPU %5.1f GiB", est.TotalMinutes, est.PeakNodeGiB, est.PeakGPUGiB)
		if est.OOM {
			status = "OOM — " + est.OOMDetail
		}
		fmt.Printf("%-22v %s\n", s, status)
	}

	fmt.Println("\n== scaling distributed-index-batching vs baseline DDP (PeMS, 30 epochs) ==")
	fmt.Printf("%5s | %-14s | %-14s | %s\n", "GPUs", "dist-index", "baseline DDP", "ratio")
	for _, workers := range []int{4, 8, 16, 32, 64, 128} {
		di := estimate("PeMS", pgti.WithStrategy(pgti.StrategyDistIndex), pgti.WithWorkers(workers), pgti.WithEpochs(30))
		dd := estimate("PeMS", pgti.WithStrategy(pgti.StrategyBaselineDDP), pgti.WithWorkers(workers), pgti.WithEpochs(30))
		fmt.Printf("%5d | %10.1f min | %10.1f min | %.2fx\n",
			workers, di.TotalMinutes, dd.TotalMinutes, dd.TotalMinutes/di.TotalMinutes)
	}

	fmt.Println("\n== what would it take to train your dataset? (PeMS-BAY, 100 epochs) ==")
	for _, workers := range []int{1, 8, 32} {
		est := estimate("PeMS-BAY", pgti.WithStrategy(pgti.StrategyDistIndex), pgti.WithWorkers(workers), pgti.WithEpochs(100))
		fmt.Printf("%3d GPU(s): %6.1f min total (%.1f min training, %.1f s preprocessing)\n",
			workers, est.TotalMinutes, est.TrainMinutes, est.PreprocessSeconds)
	}

	// Close the loop: the planned dist-index configuration, run for real at
	// a scale this host can hold, then queried through the warm Predictor.
	fmt.Println("\n== plan -> train -> serve (dist-index at laptop scale) ==")
	exp, err := pgti.NewExperiment("PeMS-BAY",
		pgti.WithScale(0.03),
		pgti.WithStrategy(pgti.StrategyDistIndex),
		pgti.WithWorkers(4),
		pgti.WithBatchSize(4),
		pgti.WithEpochs(3),
		pgti.WithHidden(12),
		pgti.WithDiffusionSteps(1),
		pgti.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := exp.Fit(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	pred, err := exp.Predictor()
	if err != nil {
		log.Fatal(err)
	}
	forecasts, err := pred.PredictTest(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d epochs on %d workers (best val MAE %.3f mph); serving test window %d: MAE %.2f mph\n",
		len(rep.Curve), rep.Workers, rep.Curve.BestVal(), forecasts[0].SnapshotIndex, forecasts[0].MAE())
}
