package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"pgti"
)

// runStream demonstrates the streaming subsystem end to end: it bootstraps a
// served model, opens a live stream over the dataset's signal, rolls
// warm-started retraining windows across it — each round's weights swapped
// atomically into the serving pool — and finishes with a client burst
// against the freshly retrained server.
//
// Every number printed is deterministic: arrivals advance a modeled ingest
// clock, training rounds run under modeled compute/collation costs when
// -modeled is set, and the serving table comes from the server's virtual
// clock. The optional trace outputs are Chrome trace-event JSON validated by
// pgti trace.
func runStream(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("stream", "", stderr)
	c := streamConfig{sharedFlags: sharedFlags{dataset: "Chickenpox-Hungary", seed: 1, epochs: 2,
		workers: 2, batch: 8, lr: 0.01, hidden: 8, k: 1, replicas: 2, clients: 4, requests: 16}}
	c.register(fs, "dataset", "seed", "epochs", "workers", "shards", "batch", "lr", "hidden", "k", "replicas", "clients", "requests")
	fs.IntVar(&c.window, "window", 256, "stream ring capacity in timesteps")
	fs.DurationVar(&c.interval, "interval", time.Minute, "modeled arrival spacing per timestep")
	fs.IntVar(&c.total, "total", 0, "stream length in timesteps (0 = the dataset's full length)")
	fs.IntVar(&c.retrainWin, "retrain-window", 200, "training window per round (0 = full ring)")
	fs.IntVar(&c.advance, "advance", 100, "window slide between rounds (0 = tumbling)")
	fs.IntVar(&c.rounds, "rounds", 3, "retraining rounds")
	fs.BoolVar(&c.cold, "cold", false, "reinitialize every round instead of warm-starting")
	fs.BoolVar(&c.modeled, "modeled", true, "charge modeled compute/collation costs (machine-independent clocks)")
	fs.StringVar(&c.fitTrace, "fit-trace", "", "write the final round's training trace to this file")
	fs.StringVar(&c.serveTrace, "serve-trace", "", "write the serve burst's trace to this file")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if err := stream(stdout, c); err != nil {
		fmt.Fprintf(stderr, "pgti stream: %v\n", err)
		return 1
	}
	return 0
}

type streamConfig struct {
	sharedFlags
	window, total               int
	interval                    time.Duration
	retrainWin, advance, rounds int
	cold, modeled               bool
	fitTrace, serveTrace        string
}

func (c streamConfig) fitOpts() []pgti.Option {
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

func stream(stdout io.Writer, c streamConfig) error {
	// Bootstrap: fit once offline so the server has an architecture and
	// first weights to hold while the stream warms up.
	fmt.Fprintf(stdout, "bootstrap: %s, %d epochs ...", c.dataset, c.epochs)
	exp, err := pgti.NewExperiment(c.dataset, c.fitOpts()...)
	if err != nil {
		return err
	}
	boot, err := exp.Fit(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, " best val MAE %.4f\n", boot.Curve.BestVal())

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

	st, err := pgti.NewStream(c.dataset, c.seed, pgti.StreamOptions{
		Window: c.window, Interval: c.interval, Total: c.total,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Fprintf(stdout, "stream: ring %d timesteps, one arrival per %v\n\n", c.window, c.interval)

	var fitRec *pgti.TraceRecorder
	ro := pgti.RetrainOptions{
		Window: c.retrainWin, Advance: c.advance, Rounds: c.rounds,
		Cold: c.cold, Server: srv,
		OnRound: func(r pgti.StreamRound) {
			lo, hi := st.Retained()
			fmt.Fprintf(stdout, "round %d: window [%d, %d)  best val MAE %.4f  virtual %v  swapped=%v  retained [%d, %d)  ingest clock %v\n",
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
	fmt.Fprintln(stdout)

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
	fmt.Fprintf(stdout, "serve burst: %d requests on retrained weights\n", c.clients*c.requests)
	fmt.Fprintf(stdout, "  %-10s %-10s %-10s %-10s %s\n", "p50", "p99", "QPS", "batches", "virtual")
	fmt.Fprintf(stdout, "  %-10v %-10v %-10.0f %-10d %v\n", stats.P50, stats.P99, stats.QPS, stats.Batches, stats.Virtual)

	if err := srv.Close(); err != nil {
		return err
	}
	if fitRec != nil {
		if err := pgti.WriteTraceFile(c.fitTrace, fitRec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "final-round training trace written to %s\n", c.fitTrace)
	}
	if serveRec != nil {
		if err := pgti.WriteTraceFile(c.serveTrace, serveRec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "serve-burst trace written to %s\n", c.serveTrace)
	}
	return nil
}
