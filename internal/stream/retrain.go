package stream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pgti/internal/core"
)

// RetrainConfig parameterizes a rolling-retrain driver.
type RetrainConfig struct {
	// Base is the per-round training configuration (strategy, model, epoch
	// budget, modeled costs). Each round clones it, injects the
	// materialized window as Provided, and warm-starts from the previous
	// round's parameters. Meta/Scale/Provided/WarmParams and the checkpoint
	// fields must be left for the retrainer to manage.
	Base core.Config
	// Window is the training window length in timesteps.
	Window int
	// Advance is how far the window slides between rounds (default Window:
	// tumbling windows).
	Advance int
	// Rounds is the number of retraining rounds to run.
	Rounds int
	// Cold disables warm-starting: every round reinitializes from the seed
	// (round 0 is always cold, which is what makes a one-round replay
	// bitwise-identical to the offline run).
	Cold bool
	// Configure, when set, edits each round's cloned configuration after
	// the window and warm-start state are injected and before the engine is
	// built — the per-round hook for attaching a fresh trace recorder or
	// decaying the learning rate across rounds. It must leave the managed
	// fields (Provided, Meta, WarmParams) alone; the edited configuration is
	// re-checked against the same rules as Base, and a round whose
	// configuration is illegal ends the run without spending retries.
	Configure func(round int, cfg *core.Config)
	// Swap, when set, receives each round's trained parameter snapshot —
	// wire it to a live server's Swap to publish weights without draining.
	Swap func(snap [][]float64) error
	// OnRound, when set, observes each completed round synchronously.
	OnRound func(r Round)
	// MaxRetries is how many extra attempts a round whose Fit fails gets —
	// each on a fresh engine over the same materialized window — before Run
	// gives up. A failed attempt never publishes weights (Swap sees only
	// complete rounds) and never releases window history: the ring retains
	// everything the next attempt needs. Cancellation is never retried.
	// Default 0 (a failed round ends the run, as before).
	MaxRetries int
	// RetryBackoff is the modeled delay before retry k of a round,
	// doubling per retry (RetryBackoff·2^(k-1)) and accumulated into the
	// round's RetryDelay. Purely virtual — retries dispatch immediately in
	// real time. Default 0.
	RetryBackoff time.Duration
}

func (c *RetrainConfig) fillDefaults() {
	if c.Advance <= 0 {
		c.Advance = c.Window
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
}

func (c *RetrainConfig) validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("stream: retrain window %d timesteps", c.Window)
	}
	if c.Base.Provided != nil || len(c.Base.WarmParams) > 0 {
		return fmt.Errorf("stream: Base.Provided and Base.WarmParams are managed by the retrainer")
	}
	if err := composes(&c.Base); err != nil {
		return err
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("stream: max retries %d must be >= 0", c.MaxRetries)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("stream: negative retry backoff %v", c.RetryBackoff)
	}
	return nil
}

// composes checks a round's training configuration — Base up front, each
// round's clone again after Configure edited it — against the engine's
// validation table and then against what rolling retraining cannot honour.
func composes(cfg *core.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.LoadCheckpoint != "" || cfg.ResumeCheckpoint != "" || cfg.SaveCheckpoint != "" {
		return fmt.Errorf("stream: checkpointing does not compose with rolling retraining")
	}
	if cfg.Scale > 0 && cfg.Scale < 1 {
		return fmt.Errorf("stream: Scale %g — scale the stream's Meta instead", cfg.Scale)
	}
	if cfg.MissingFrac > 0 {
		return fmt.Errorf("stream: MissingFrac injection is not supported on streamed windows")
	}
	return nil
}

// Round is one completed retraining round.
type Round struct {
	// Round is the zero-based round index.
	Round int
	// Lo and Hi delimit the trained window's timesteps, [Lo, Hi).
	Lo, Hi int
	// Report is the round's full training report (curve, virtual clock,
	// memory accounting, repartitions).
	Report *core.Report
	// Swapped reports whether the round's parameters were published through
	// RetrainConfig.Swap (into the live Server, on the public surface).
	Swapped bool
	// Attempts is how many Fit attempts the round took (1 = no retry; see
	// MaxRetries).
	Attempts int
	// RetryDelay is the modeled backoff accumulated across the round's
	// failed attempts (0 when Attempts is 1 or RetryBackoff unset).
	RetryDelay time.Duration
}

// Retrainer drives rolling retraining over a streaming source: wait for the
// next window to fill, materialize it, Fit (warm-started), publish the
// weights. Each round runs a fresh core.Engine, so every offline facility —
// events, tracing, spatial sharding, elastic repartitioning — composes with
// streaming unchanged.
type Retrainer struct {
	src *Source
	cfg RetrainConfig
	// fit runs one training attempt over a fully prepared round
	// configuration and returns the trained parameter snapshot plus the
	// report. The default builds a fresh core.Engine per attempt (an engine
	// fits once — retries need new ones anyway); tests override it to
	// inject deterministic attempt failures.
	fit func(ctx context.Context, cfg core.Config) ([][]float64, *core.Report, error)
}

// NewRetrainer validates the configuration against the source.
func NewRetrainer(src *Source, cfg RetrainConfig) (*Retrainer, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Window > src.opts.Window {
		return nil, fmt.Errorf("stream: retrain window %d exceeds the source ring (%d timesteps)", cfg.Window, src.opts.Window)
	}
	if min := 2 * src.meta.Horizon; cfg.Window < min {
		return nil, fmt.Errorf("stream: retrain window %d cannot hold one %s snapshot (needs >= %d timesteps)", cfg.Window, src.meta.Name, min)
	}
	if need := (cfg.Rounds-1)*cfg.Advance + cfg.Window; need > src.opts.Total {
		return nil, fmt.Errorf("stream: %d rounds need %d timesteps, stream ends at %d", cfg.Rounds, need, src.opts.Total)
	}
	return &Retrainer{src: src, cfg: cfg, fit: fitOnce}, nil
}

// fitOnce is the default per-attempt trainer: a fresh engine, one Fit, one
// parameter snapshot.
func fitOnce(ctx context.Context, cfg core.Config) ([][]float64, *core.Report, error) {
	eng := core.NewEngine(cfg)
	if err := eng.Fit(ctx); err != nil {
		return nil, nil, err
	}
	snap, err := eng.ParamSnapshot()
	if err != nil {
		return nil, nil, err
	}
	return snap, eng.Report(), nil
}

// Run executes the configured rounds, returning the completed rounds (also
// on error: a closed source or cancelled Fit ends the run after the rounds
// already finished).
func (r *Retrainer) Run(ctx context.Context) ([]Round, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var warm [][]float64
	rounds := make([]Round, 0, r.cfg.Rounds)
	for k := 0; k < r.cfg.Rounds; k++ {
		lo := k * r.cfg.Advance
		hi := lo + r.cfg.Window
		if !r.src.WaitFor(hi) {
			return rounds, fmt.Errorf("stream: source closed before timestep %d (round %d)", hi, k)
		}
		ds, err := r.src.Materialize(lo, hi)
		if err != nil {
			return rounds, err
		}
		var snap [][]float64
		var report *core.Report
		attempts := 0
		var delay time.Duration
		for {
			attempts++
			cfg := r.cfg.Base
			cfg.Provided = ds
			cfg.Meta = ds.Meta
			if !r.cfg.Cold {
				cfg.WarmParams = warm // nil on round 0: cold start
			}
			if r.cfg.Configure != nil {
				r.cfg.Configure(k, &cfg)
				if err := composes(&cfg); err != nil {
					return rounds, fmt.Errorf("stream: round %d configuration: %w", k, err)
				}
			}
			snap, report, err = r.fit(ctx, cfg)
			if err == nil {
				break
			}
			// A cancelled round is the caller's decision, not a fault —
			// surface it immediately. A failed attempt retries on a fresh
			// engine after a modeled (never slept) backoff, up to
			// MaxRetries; nothing is published and no history released
			// until an attempt succeeds, so a retry trains the identical
			// window the failed attempt did. An illegal configuration fails
			// every attempt alike, so it is never retried either.
			var illegal *core.InvalidConfigError
			if ctx.Err() != nil || attempts > r.cfg.MaxRetries || errors.As(err, &illegal) {
				return rounds, fmt.Errorf("stream: round %d fit (attempt %d): %w", k, attempts, err)
			}
			shift := uint(attempts - 1)
			if shift > 16 {
				shift = 16
			}
			delay += r.cfg.RetryBackoff << shift
		}
		warm = snap
		round := Round{Round: k, Lo: lo, Hi: hi, Report: report, Attempts: attempts, RetryDelay: delay}
		if r.cfg.Swap != nil {
			if err := r.cfg.Swap(snap); err != nil {
				return rounds, fmt.Errorf("stream: round %d swap: %w", k, err)
			}
			round.Swapped = true
		}
		// History below the next window's start is no longer needed; give
		// it back so the producer can keep sliding.
		r.src.Release(lo + r.cfg.Advance)
		if r.cfg.OnRound != nil {
			r.cfg.OnRound(round)
		}
		rounds = append(rounds, round)
	}
	return rounds, nil
}
