package pgti

import (
	"context"
	"fmt"
	"time"

	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/stream"
)

// Streaming: online ingestion and rolling retraining over the staged
// lifecycle.
//
//	st, _ := pgti.NewStream("Chickenpox-Hungary", 42, pgti.StreamOptions{
//		Window: 256, Interval: time.Minute})
//	defer st.Close()
//	srv, _ := pgti.NewServer(exp, pgti.WithReplicas(2))
//	rounds, err := st.Retrain(ctx, pgti.RetrainOptions{
//		Window: 200, Advance: 100, Rounds: 3, Server: srv,
//	}, pgti.WithEpochs(2), pgti.WithPrefetch())
//
// A Stream ingests the signal one timestep at a time into a bounded
// sliding-window ring; Retrain materializes each window into an ordinary
// dataset, runs a warm-started Fit through the ordinary engine (every
// option composes: spatial sharding, repartitioning, tracing, events), and
// publishes the refreshed weights into a live Server without draining.
// Determinism carries over from the offline path: arrivals advance a
// modeled ingest clock, and a single-window replay of the whole stream
// reproduces the offline experiment's curve — and, under modeled costs, its
// virtual clock — bitwise.

// StreamOptions parameterizes NewStream's ingestion: the ring capacity
// Window, the modeled arrival spacing Interval, and the stream length cap
// Total. It is the ingestion layer's own options struct, re-exported; see
// stream.Options for the per-field documentation.
type StreamOptions = stream.Options

// Stream is a live ingestion handle over a named dataset's signal: a
// background producer fills a bounded sliding-window ring that Retrain
// consumes. Construct with NewStream; Close when done (idempotent, and safe
// mid-Retrain — the run ends with a typed error after the current round).
type Stream struct {
	src *stream.Source
}

// NewStream starts streaming the named dataset's signal (same generator,
// same seed semantics as the offline path — timestep t is bitwise the
// offline dataset's row t).
func NewStream(datasetName string, seed uint64, o StreamOptions) (*Stream, error) {
	meta, err := dataset.ByName(datasetName)
	if err != nil {
		return nil, fmt.Errorf("pgti: %w (available: %v)", err, Datasets())
	}
	src, err := stream.NewSource(meta, seed, o)
	if err != nil {
		return nil, fmt.Errorf("pgti: %w", err)
	}
	return &Stream{src: src}, nil
}

// Retained reports the window of timesteps currently held, [lo, hi).
func (s *Stream) Retained() (lo, hi int) { return s.src.Retained() }

// IngestClock returns the modeled arrival clock: ingested timesteps times
// the configured interval, independent of host scheduling.
func (s *Stream) IngestClock() time.Duration { return s.src.IngestClock() }

// Stats returns the exact mean and standard deviation over the currently
// retained window (recomputed incrementally, renormalized on eviction).
func (s *Stream) Stats() (mean, std float64) { return s.src.Stats() }

// Close stops ingestion and wakes every waiter; a Retrain in flight returns
// its completed rounds alongside a "source closed" error. Idempotent.
func (s *Stream) Close() { s.src.Close() }

// StreamRound is one completed rolling-retrain round: its index and window
// [Lo, Hi), the round's full training Report, whether its weights were
// published into the Server, and the retry accounting (Attempts,
// RetryDelay). It is the retrainer's own record, re-exported; see
// stream.Round for the per-field documentation.
type StreamRound = stream.Round

// RetrainOptions parameterizes Stream.Retrain.
type RetrainOptions struct {
	// Window is the training window length in timesteps (default: the
	// stream's full ring).
	Window int
	// Advance slides the window between rounds (default Window: tumbling).
	Advance int
	// Rounds is the number of retraining rounds (default 1).
	Rounds int
	// Cold disables warm-starting: every round reinitializes from the seed.
	// Round 0 is always cold — that is what makes a one-round replay
	// bitwise-identical to the offline run.
	Cold bool
	// Server, when set, receives each round's weights through an atomic
	// Swap — in-flight predictions finish on the old weights, later ones
	// see only the new.
	Server *Server
	// OnRound observes each completed round synchronously.
	OnRound func(r StreamRound)
	// RoundOptions, when set, supplies extra options applied on top of the
	// base option set for the given round — the hook for per-round state
	// such as a fresh trace recorder (recorders cannot span rounds: each
	// round's virtual clocks restart at zero) or a decaying learning rate.
	// They mean what they mean in the base set, and the round's resulting
	// configuration is re-checked: an illegal combination, or an option
	// Retrain rejects (see below), ends the run with the same error the base
	// set would have produced, without spending MaxRetries.
	RoundOptions func(round int) []Option
	// MaxRetries is how many extra attempts a round whose Fit fails gets —
	// each on a fresh engine over the same materialized window — before
	// Retrain gives up. A failed attempt never publishes weights into the
	// Server and never releases window history, so a retry trains the
	// identical window. Cancellation is never retried. Default 0.
	MaxRetries int
	// RetryBackoff is the modeled delay before retry k of a round, doubling
	// per retry and accumulated into the round's RetryDelay. Purely virtual.
	RetryBackoff time.Duration
}

// Retrain drives rolling retraining over the stream: wait for the next
// window to fill, materialize it, Fit with the given experiment options
// (warm-started from the previous round), publish the weights, release the
// history behind the window. Returns the completed rounds — also alongside
// an error, when the stream closes or a round's Fit fails mid-run.
// Checkpointing and dataset-mutating options (WithScale, WithMissingData,
// WithWarmStart, WithResume, WithSaveCheckpoint) do not compose with
// streaming and are rejected.
func (s *Stream) Retrain(ctx context.Context, ro RetrainOptions, opts ...Option) ([]StreamRound, error) {
	var base core.Config
	for _, opt := range opts {
		opt(&base)
	}
	window := ro.Window
	if window == 0 {
		window = s.src.Window()
	}
	rc := stream.RetrainConfig{
		Base:         base,
		Window:       window,
		Advance:      ro.Advance,
		Rounds:       ro.Rounds,
		Cold:         ro.Cold,
		OnRound:      ro.OnRound,
		MaxRetries:   ro.MaxRetries,
		RetryBackoff: ro.RetryBackoff,
	}
	if ro.Server != nil {
		rc.Swap = ro.Server.srv.Swap
	}
	if ro.RoundOptions != nil {
		rc.Configure = func(round int, cfg *core.Config) {
			for _, opt := range ro.RoundOptions(round) {
				opt(cfg)
			}
		}
	}
	// NewRetrainer fails fast on the base options through the engine's
	// validation table, then on what streaming itself cannot compose with.
	rt, err := stream.NewRetrainer(s.src, rc)
	if err != nil {
		return nil, fmt.Errorf("pgti: %w", err)
	}
	rounds, err := rt.Run(ctx)
	if err != nil {
		return rounds, fmt.Errorf("pgti: %w", err)
	}
	return rounds, nil
}
