// Command pgti-stream demonstrates the streaming subsystem end to end: it
// bootstraps a served model, opens a live stream over the dataset's signal,
// rolls warm-started retraining windows across it — each round's weights
// swapped atomically into the serving pool — and finishes with a client
// burst against the freshly retrained server.
//
// Every number printed is deterministic: arrivals advance a modeled ingest
// clock, training rounds run under modeled compute/collation costs when
// -modeled is set, and the serving table comes from the server's virtual
// clock. The optional trace outputs are Chrome trace-event JSON validated
// by pgti-trace.
//
// Examples:
//
//	pgti-stream -rounds 3 -retrain-window 200 -advance 100 -epochs 2
//	pgti-stream -shards 2 -workers 2 -rounds 2
//	pgti-stream -fit-trace fit.json -serve-trace serve.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pgti"
)

func main() {
	ds := flag.String("dataset", "Chickenpox-Hungary", "dataset: "+strings.Join(pgti.Datasets(), "|"))
	seed := flag.Uint64("seed", 1, "random seed (generator, init, shuffling)")
	window := flag.Int("window", 256, "stream ring capacity in timesteps")
	interval := flag.Duration("interval", time.Minute, "modeled arrival spacing per timestep")
	total := flag.Int("total", 0, "stream length in timesteps (0 = the dataset's full length)")
	retrainWin := flag.Int("retrain-window", 200, "training window per round (0 = full ring)")
	advance := flag.Int("advance", 100, "window slide between rounds (0 = tumbling)")
	rounds := flag.Int("rounds", 3, "retraining rounds")
	cold := flag.Bool("cold", false, "reinitialize every round instead of warm-starting")
	epochs := flag.Int("epochs", 2, "epochs per round")
	workers := flag.Int("workers", 2, "data-parallel workers per round")
	shards := flag.Int("shards", 0, "spatial graph shards (>1 enables the 2D grid)")
	batch := flag.Int("batch", 8, "per-worker batch size")
	lr := flag.Float64("lr", 0.01, "learning rate")
	hidden := flag.Int("hidden", 8, "hidden units")
	k := flag.Int("k", 1, "diffusion hops")
	replicas := flag.Int("replicas", 2, "warm serving replicas")
	clients := flag.Int("clients", 4, "concurrent clients in the closing burst")
	requests := flag.Int("requests", 16, "requests per client in the closing burst")
	modeled := flag.Bool("modeled", true, "charge modeled compute/collation costs (machine-independent clocks)")
	fitTrace := flag.String("fit-trace", "", "write the final round's training trace to this file")
	serveTrace := flag.String("serve-trace", "", "write the serve burst's trace to this file")
	flag.Parse()

	if err := run(cfg{
		ds: *ds, seed: *seed, window: *window, interval: *interval, total: *total,
		retrainWin: *retrainWin, advance: *advance, rounds: *rounds, cold: *cold,
		epochs: *epochs, workers: *workers, shards: *shards, batch: *batch,
		lr: *lr, hidden: *hidden, k: *k, replicas: *replicas,
		clients: *clients, requests: *requests, modeled: *modeled,
		fitTrace: *fitTrace, serveTrace: *serveTrace,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pgti-stream: %v\n", err)
		os.Exit(1)
	}
}

type cfg struct {
	ds                             string
	seed                           uint64
	window, total                  int
	interval                       time.Duration
	retrainWin, advance, rounds    int
	cold                           bool
	epochs, workers, shards, batch int
	lr                             float64
	hidden, k                      int
	replicas, clients, requests    int
	modeled                        bool
	fitTrace, serveTrace           string
}

func (c cfg) fitOpts() []pgti.Option {
	opts := []pgti.Option{
		pgti.WithBatchSize(c.batch), pgti.WithEpochs(c.epochs),
		pgti.WithLR(c.lr), pgti.WithHidden(c.hidden),
		pgti.WithDiffusionSteps(c.k), pgti.WithSeed(c.seed),
		pgti.WithPrefetch(),
	}
	if c.workers > 1 || c.shards > 1 {
		opts = append(opts, pgti.WithStrategy(pgti.StrategyDistIndex), pgti.WithWorkers(c.workers))
	}
	if c.shards > 1 {
		opts = append(opts, pgti.WithSpatial(c.shards))
	}
	if c.modeled {
		opts = append(opts,
			pgti.WithComputeCost(func(int) time.Duration { return 2 * time.Millisecond }),
			pgti.WithAssembleCost(func(items int) time.Duration {
				return time.Duration(items) * 25 * time.Microsecond
			}))
	}
	return opts
}

func run(c cfg) error {
	// Bootstrap: fit once offline so the server has an architecture and
	// first weights to hold while the stream warms up.
	fmt.Printf("bootstrap: %s, %d epochs ...", c.ds, c.epochs)
	exp, err := pgti.NewExperiment(c.ds, c.fitOpts()...)
	if err != nil {
		return err
	}
	boot, err := exp.Fit(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf(" best val MAE %.4f\n", boot.Curve.BestVal())

	serveOpts := []pgti.ServeOption{pgti.WithReplicas(c.replicas)}
	var serveRec *pgti.TraceRecorder
	if c.serveTrace != "" {
		serveRec = pgti.NewTraceRecorder()
		serveOpts = append(serveOpts, pgti.WithServeTrace(serveRec))
	}
	srv, err := pgti.NewServer(exp, serveOpts...)
	if err != nil {
		return err
	}
	defer srv.Close()

	st, err := pgti.NewStream(c.ds, c.seed, pgti.StreamOptions{
		Window: c.window, Interval: c.interval, Total: c.total,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("stream: ring %d timesteps, one arrival per %v\n\n", c.window, c.interval)

	var fitRec *pgti.TraceRecorder
	ro := pgti.RetrainOptions{
		Window: c.retrainWin, Advance: c.advance, Rounds: c.rounds,
		Cold: c.cold, Server: srv,
		OnRound: func(r pgti.StreamRound) {
			lo, hi := st.Retained()
			fmt.Printf("round %d: window [%d, %d)  best val MAE %.4f  virtual %v  swapped=%v  retained [%d, %d)  ingest clock %v\n",
				r.Round, r.Lo, r.Hi, r.Report.Curve.BestVal(), r.Report.VirtualTime,
				r.Swapped, lo, hi, st.IngestClock())
		},
	}
	if c.fitTrace != "" {
		// One recorder cannot span rounds (per-round clocks restart at
		// zero), so trace the final round only.
		ro.RoundOptions = func(round int) []pgti.Option {
			if round != c.rounds-1 {
				return nil
			}
			fitRec = pgti.NewTraceRecorder()
			return []pgti.Option{pgti.WithTrace(fitRec)}
		}
	}
	if _, err := st.Retrain(context.Background(), ro, c.fitOpts()...); err != nil {
		return err
	}
	fmt.Println()

	// The closing burst runs against the last round's swapped-in weights.
	n := srv.Horizon() * srv.Nodes() * srv.Features()
	for cl := 0; cl < c.clients*c.requests; cl++ {
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = 20 + float64((cl*7+j*3)%13)
		}
		if _, err := srv.Predict(context.Background(), pgti.Window{Values: vals}); err != nil {
			return fmt.Errorf("serve burst: %w", err)
		}
	}
	stats := srv.Stats()
	fmt.Printf("serve burst: %d requests on retrained weights\n", c.clients*c.requests)
	fmt.Printf("  %-10s %-10s %-10s %-10s %s\n", "p50", "p99", "QPS", "batches", "virtual")
	fmt.Printf("  %-10v %-10v %-10.0f %-10d %v\n", stats.P50, stats.P99, stats.QPS, stats.Batches, stats.Virtual)

	if err := srv.Close(); err != nil {
		return err
	}
	if fitRec != nil {
		if err := pgti.WriteTraceFile(c.fitTrace, fitRec); err != nil {
			return err
		}
		fmt.Printf("final-round training trace written to %s\n", c.fitTrace)
	}
	if serveRec != nil {
		if err := pgti.WriteTraceFile(c.serveTrace, serveRec); err != nil {
			return err
		}
		fmt.Printf("serve-burst trace written to %s\n", c.serveTrace)
	}
	return nil
}
