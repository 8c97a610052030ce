package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pgti"
)

// runServe demonstrates the serving tier end to end: it trains a model,
// stands up a coalescing Server over it, drives concurrent client load, then
// retrains to better weights and atomically swaps them in while the load
// keeps flowing — the full train → serve → retrain → swap lifecycle behind
// pgti.NewServer.
//
// The latency/QPS table it prints comes from the server's deterministic
// virtual clock (a modeled cost per batched forward), so the numbers
// describe the serving design, not this machine's scheduler.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("serve", "", stderr)
	s := sharedFlags{dataset: "Chickenpox-Hungary", scale: 1, epochs: 6, seed: 1,
		replicas: 2, clients: 8, requests: 32}
	s.register(fs, "dataset", "scale", "epochs", "seed", "replicas", "clients", "requests", "trace")
	retrain := fs.Int("retrain-epochs", 14, "epochs for the retrain that gets swapped in (0 = skip)")
	maxBatch := fs.Int("maxbatch", 8, "max coalesced batch size")
	window := fs.Duration("batch-window", 2*time.Millisecond, "how long a forming batch waits for stragglers")
	queue := fs.Int("queue", 0, "admission queue depth (0 = default 4x maxbatch)")
	rate := fs.Duration("rate", 0, "modeled open-loop interarrival (0 = closed-loop virtual clock)")
	failReplica := fs.Int("fail-replica", -1, "inject a failure into this replica (-1 = none)")
	failAfter := fs.Int("fail-after", 0, "forward calls -fail-replica serves before dying")
	retryBackoff := fs.Duration("retry-backoff", 0, "modeled base backoff before a failover retry (0 = default)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	opts := []pgti.ServeOption{
		pgti.WithReplicas(s.replicas),
		pgti.WithMaxBatch(*maxBatch),
		pgti.WithBatchWindow(*window),
	}
	if *queue > 0 {
		opts = append(opts, pgti.WithQueueDepth(*queue))
	}
	if *rate > 0 {
		opts = append(opts, pgti.WithArrivalProcess(*rate))
	}
	if *failReplica >= 0 {
		opts = append(opts, pgti.WithReplicaFailure(*failReplica, *failAfter))
	}
	if *retryBackoff > 0 {
		opts = append(opts, pgti.WithServeRetryBackoff(*retryBackoff))
	}
	if err := serve(stdout, s, *retrain, *maxBatch, *window, opts); err != nil {
		fmt.Fprintf(stderr, "pgti serve: %v\n", err)
		return 1
	}
	return 0
}

func serve(stdout io.Writer, s sharedFlags, retrain, maxBatch int, window time.Duration, opts []pgti.ServeOption) error {
	fit := func(label string, ep int) (*pgti.Experiment, error) {
		fmt.Fprintf(stdout, "%s: %s, %d epochs ...", label, s.dataset, ep)
		exp, err := pgti.NewExperiment(s.dataset,
			pgti.WithScale(s.scale),
			pgti.WithStrategy(pgti.StrategyIndex),
			pgti.WithEpochs(ep),
			pgti.WithSeed(s.seed))
		if err != nil {
			return nil, err
		}
		report, err := exp.Fit(context.Background())
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, " best val MAE %.4f\n", report.Curve.BestVal())
		return exp, nil
	}

	exp, err := fit("train", s.epochs)
	if err != nil {
		return err
	}

	var rec *pgti.TraceRecorder
	if s.trace != "" {
		rec = pgti.NewTraceRecorder()
		opts = append(opts, pgti.WithServeTrace(rec))
	}
	srv, err := pgti.NewServer(exp, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "serving: %d replica(s), max batch %d, window %v\n\n",
		s.replicas, maxBatch, window)

	load := func(phase string) {
		var wg sync.WaitGroup
		var shed, failed atomic.Int64
		for c := 0; c < s.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				n := srv.Horizon() * srv.Nodes() * srv.Features()
				for r := 0; r < s.requests; r++ {
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
		fmt.Fprintf(stdout, "%s: %d clients x %d requests (%d shed, %d failed)\n",
			phase, s.clients, s.requests, shed.Load(), failed.Load())
		fmt.Fprintf(stdout, "  %-10s %-10s %-10s %-10s %-12s %s\n",
			"p50", "p99", "QPS", "batches", "mean batch", "virtual")
		fmt.Fprintf(stdout, "  %-10v %-10v %-10.0f %-10d %-12.2f %v\n",
			st.P50, st.P99, st.QPS, st.Batches, st.MeanBatch, st.Virtual)
		if st.Retries > 0 || st.EvictedReplicas > 0 {
			fmt.Fprintf(stdout, "  failover: %d retries, %d replica(s) evicted, %d healthy\n",
				st.Retries, st.EvictedReplicas, st.Replicas)
		}
		fmt.Fprintln(stdout)
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
		fmt.Fprintln(stdout, "swapped the retrained model in (no drain)")
		load("phase 2 (swapped weights)")
	}

	// Close first: the end-of-run serving counters (shed, queue high-water)
	// flush into the recorder when the collector drains.
	if err := srv.Close(); err != nil {
		return err
	}
	if rec != nil {
		if err := pgti.WriteTraceFile(s.trace, rec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s (load at ui.perfetto.dev)\n", s.trace)
	}
	return nil
}
