// Command pgti-serve demonstrates the serving tier end to end: it trains a
// model, stands up a coalescing Server over it, drives concurrent client
// load, then retrains to better weights and atomically swaps them in while
// the load keeps flowing — the full train → serve → retrain → swap
// lifecycle behind pgti.NewServer.
//
// The latency/QPS table it prints comes from the server's deterministic
// virtual clock (a modeled cost per batched forward), so the numbers
// describe the serving design, not this machine's scheduler.
//
// Examples:
//
//	pgti-serve -dataset Chickenpox-Hungary -epochs 6 -retrain-epochs 14
//	pgti-serve -replicas 2 -clients 16 -requests 64
//	pgti-serve -queue 4 -clients 32   # small queue: watch load shedding
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgti"
)

func main() {
	ds := flag.String("dataset", "Chickenpox-Hungary", "dataset: "+strings.Join(pgti.Datasets(), "|"))
	scale := flag.Float64("scale", 1, "dataset scale factor (0,1]")
	epochs := flag.Int("epochs", 6, "epochs for the first (serving) fit")
	retrain := flag.Int("retrain-epochs", 14, "epochs for the retrain that gets swapped in (0 = skip)")
	replicas := flag.Int("replicas", 2, "replica slots over the one served model")
	maxBatch := flag.Int("maxbatch", 8, "max coalesced batch size")
	window := flag.Duration("batch-window", 2*time.Millisecond, "how long a forming batch waits for stragglers")
	queue := flag.Int("queue", 0, "admission queue depth (0 = default 4x maxbatch)")
	clients := flag.Int("clients", 8, "concurrent client goroutines per load phase")
	requests := flag.Int("requests", 32, "requests per client per load phase")
	rate := flag.Duration("rate", 0, "modeled open-loop interarrival (0 = closed-loop virtual clock)")
	seed := flag.Uint64("seed", 1, "random seed")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the serving run to this file")
	failReplica := flag.Int("fail-replica", -1, "inject a failure into this replica (-1 = none)")
	failAfter := flag.Int("fail-after", 0, "forward calls -fail-replica serves before dying")
	retryBackoff := flag.Duration("retry-backoff", 0, "modeled base backoff before a failover retry (0 = default)")
	flag.Parse()

	if err := run(*ds, *scale, *epochs, *retrain, *replicas, *maxBatch, *window,
		*queue, *clients, *requests, *rate, *seed, *traceOut,
		*failReplica, *failAfter, *retryBackoff); err != nil {
		fmt.Fprintf(os.Stderr, "pgti-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(ds string, scale float64, epochs, retrain, replicas, maxBatch int,
	window time.Duration, queue, clients, requests int, rate time.Duration, seed uint64, traceOut string,
	failReplica, failAfter int, retryBackoff time.Duration) error {
	fit := func(label string, ep int) (*pgti.Experiment, error) {
		fmt.Printf("%s: %s, %d epochs ...", label, ds, ep)
		exp, err := pgti.NewExperiment(ds,
			pgti.WithScale(scale),
			pgti.WithStrategy(pgti.StrategyIndex),
			pgti.WithEpochs(ep),
			pgti.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		report, err := exp.Fit(context.Background())
		if err != nil {
			return nil, err
		}
		fmt.Printf(" best val MAE %.4f\n", report.Curve.BestVal())
		return exp, nil
	}

	exp, err := fit("train", epochs)
	if err != nil {
		return err
	}

	opts := []pgti.ServeOption{
		pgti.WithReplicas(replicas),
		pgti.WithMaxBatch(maxBatch),
		pgti.WithBatchWindow(window),
	}
	if queue > 0 {
		opts = append(opts, pgti.WithQueueDepth(queue))
	}
	if rate > 0 {
		opts = append(opts, pgti.WithArrivalProcess(rate))
	}
	if failReplica >= 0 {
		opts = append(opts, pgti.WithReplicaFailure(failReplica, failAfter))
	}
	if retryBackoff > 0 {
		opts = append(opts, pgti.WithServeRetryBackoff(retryBackoff))
	}
	var rec *pgti.TraceRecorder
	if traceOut != "" {
		rec = pgti.NewTraceRecorder()
		opts = append(opts, pgti.WithServeTrace(rec))
	}
	srv, err := pgti.NewServer(exp, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("serving: %d replica(s), max batch %d, window %v\n\n",
		replicas, maxBatch, window)

	load := func(phase string) {
		var wg sync.WaitGroup
		var shed, failed atomic.Int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				n := srv.Horizon() * srv.Nodes() * srv.Features()
				for r := 0; r < requests; r++ {
					// Synthetic live windows: plausible values that vary by
					// client and round so batches mix distinct requests.
					vals := make([]float64, n)
					for j := range vals {
						vals[j] = 20 + float64((c*7+r*3+j)%13)
					}
					_, err := srv.Predict(context.Background(), pgti.Window{Values: vals})
					var ov *pgti.OverloadedError
					switch {
					case errors.As(err, &ov):
						shed.Add(1)
						time.Sleep(ov.RetryAfter)
					case err != nil:
						failed.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		st := srv.Stats()
		fmt.Printf("%s: %d clients x %d requests (%d shed, %d failed)\n",
			phase, clients, requests, shed.Load(), failed.Load())
		fmt.Printf("  %-10s %-10s %-10s %-10s %-12s %s\n",
			"p50", "p99", "QPS", "batches", "mean batch", "virtual")
		fmt.Printf("  %-10v %-10v %-10.0f %-10d %-12.2f %v\n",
			st.P50, st.P99, st.QPS, st.Batches, st.MeanBatch, st.Virtual)
		if st.Retries > 0 || st.EvictedReplicas > 0 {
			fmt.Printf("  failover: %d retries, %d replica(s) evicted, %d healthy\n",
				st.Retries, st.EvictedReplicas, st.Replicas)
		}
		fmt.Println()
	}

	load("phase 1 (initial weights)")

	if retrain > 0 {
		exp2, err := fit("retrain", retrain)
		if err != nil {
			return err
		}
		if err := srv.Swap(exp2); err != nil {
			return err
		}
		fmt.Println("swapped the retrained model in (no drain)")
		load("phase 2 (swapped weights)")
	}

	// Close first: the end-of-run serving counters (shed, queue high-water)
	// flush into the recorder when the collector drains.
	if err := srv.Close(); err != nil {
		return err
	}
	if rec != nil {
		if err := pgti.WriteTraceFile(traceOut, rec); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load at ui.perfetto.dev)\n", traceOut)
	}
	return nil
}
