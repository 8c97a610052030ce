package core

import (
	"fmt"

	"pgti/internal/batching"
)

// Window is one raw input window for inference: Horizon time steps of all
// node features in original signal units (un-standardized), laid out
// row-major as [step][node][feature]. The feature axis must match the
// dataset's augmented layout (e.g. traffic datasets carry the reading at
// feature 0 and the time-of-day fraction at feature 1).
type Window struct {
	Values []float64
}

// Predictor is a warm, goroutine-safe inference handle over a trained run:
// it reuses the trained parameters and the training split's normalization
// statistics, standardizing inputs and un-z-scoring predictions exactly as
// the training pipeline did. Obtain one from Engine.Predictor after Fit.
//
// The forward records no tape and only reads the parameters, so a single
// Predictor is safe to share across goroutines, and calls run concurrently;
// it never mutates the trained parameters. The InferCore is the same
// machinery the serving tier's replica pool batches over, so Predictor and
// a coalescing Server produce bitwise-identical forecasts.
type Predictor struct {
	*InferCore
	src  batching.Source
	test []int
}

// TestWindows returns how many held-out test windows PredictTest can serve.
func (p *Predictor) TestWindows() int { return len(p.test) }

// Predict forecasts the next Horizon steps from a raw input window. The
// returned Forecast carries predictions in original signal units; Actual is
// empty (live inference has no ground truth).
func (p *Predictor) Predict(w Window) (Forecast, error) {
	fs, err := p.ForwardBatch([]Window{w})
	if err != nil {
		return Forecast{}, err
	}
	return fs[0], nil
}

// PredictTest runs inference on the first n held-out test windows with
// ground truth attached — byte-for-byte the same computation as
// Config.EmitForecasts, so serving and evaluation cannot drift apart.
func (p *Predictor) PredictTest(n int) ([]Forecast, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: PredictTest needs n >= 1, got %d", n)
	}
	return emitForecasts(p.model, p.src, p.test, n, p.nodes), nil
}

// Predictor returns the warm inference handle over the fitted model. The
// handle shares the engine's trained parameters directly (no clone), so it
// stays bitwise-pinned to the fitted weights; use Engine.NewInferCore for an
// isolated copy that a later Fit cannot reach.
func (e *Engine) Predictor() (*Predictor, error) {
	if e.stage < stageFitted {
		return nil, fmt.Errorf("core: predictor before fit: %w", ErrNotFitted)
	}
	return &Predictor{InferCore: e.inferCore(e.model), src: e.data, test: e.split.Test}, nil
}
