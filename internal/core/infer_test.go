package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"pgti/internal/nn"
	"pgti/internal/tensor"
)

// fittedEngine trains a tiny run and returns the engine plus a set of
// distinct plausible raw windows.
func fittedEngine(t *testing.T) (*Engine, []Window) {
	t.Helper()
	cfg := tinyCfg(Index)
	e := NewEngine(cfg)
	if err := e.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := e.meta.Horizon * e.meta.Nodes * e.in
	ws := make([]Window, 8)
	for i := range ws {
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = 40 + float64(i) + float64(j%7)
		}
		ws[i] = Window{Values: vals}
	}
	return e, ws
}

// TestForwardBatchBitwiseEqualsSingle pins the coalescing contract: sample
// i of a batched forward is bit-for-bit the forecast of forwarding window i
// alone. Every forward-path kernel accumulates per output element
// independently of sibling batch rows, so batching may change throughput
// but never bits.
func TestForwardBatchBitwiseEqualsSingle(t *testing.T) {
	e, ws := fittedEngine(t)
	c, err := e.NewInferCore()
	if err != nil {
		t.Fatal(err)
	}
	batched, err := c.ForwardBatch(ws)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		single, err := c.ForwardBatch([]Window{w})
		if err != nil {
			t.Fatal(err)
		}
		if len(single[0].Pred) != len(batched[i].Pred) {
			t.Fatalf("window %d: %d vs %d values", i, len(single[0].Pred), len(batched[i].Pred))
		}
		for j := range single[0].Pred {
			if math.Float64bits(single[0].Pred[j]) != math.Float64bits(batched[i].Pred[j]) {
				t.Fatalf("window %d value %d: batched %v != single %v",
					i, j, batched[i].Pred[j], single[0].Pred[j])
			}
		}
	}
}

// TestInferCoreCloneMatchesPredictor: a cloned core and the engine-shared
// Predictor must forecast bitwise identically — the clone is the same bits
// in a private architecture.
func TestInferCoreCloneMatchesPredictor(t *testing.T) {
	e, ws := fittedEngine(t)
	c, err := e.NewInferCore()
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws[:3] {
		ref, err := p.Predict(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ForwardBatch([]Window{w})
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.Pred {
			if math.Float64bits(ref.Pred[j]) != math.Float64bits(got[0].Pred[j]) {
				t.Fatalf("clone drifted at value %d: %v vs %v", j, got[0].Pred[j], ref.Pred[j])
			}
		}
	}
}

// TestInferCoreCloneIsIsolated: mutating the engine's parameters must not
// change a previously built core's forecasts (serve-while-retrain), and the
// retrained weights reach serving only as a whole new core, which forecasts
// exactly what the engine's own Predictor now does.
func TestInferCoreCloneIsIsolated(t *testing.T) {
	e, ws := fittedEngine(t)
	c, err := e.NewInferCore()
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.ForwardBatch(ws[:1])
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a retrain: perturb the engine's parameters in place.
	for _, p := range e.model.Parameters() {
		d := p.Tensor().Data()
		for i := range d {
			d[i] += 0.125
		}
	}
	after, err := c.ForwardBatch(ws[:1])
	if err != nil {
		t.Fatal(err)
	}
	for j := range before[0].Pred {
		if math.Float64bits(before[0].Pred[j]) != math.Float64bits(after[0].Pred[j]) {
			t.Fatal("engine mutation leaked into the cloned core")
		}
	}

	// A fresh core clones the perturbed weights; it must match the
	// Predictor, which reads the engine's model directly.
	fresh, err := e.NewInferCore()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSwap(c, fresh); err != nil {
		t.Fatalf("a core of the same engine cannot replace the old one: %v", err)
	}
	p, err := e.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Predict(ws[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.ForwardBatch(ws[:1])
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for j := range want.Pred {
		if math.Float64bits(want.Pred[j]) != math.Float64bits(got[0].Pred[j]) {
			t.Fatal("fresh core drifted from the retrained weights")
		}
		changed = changed || math.Float64bits(got[0].Pred[j]) != math.Float64bits(before[0].Pred[j])
	}
	if !changed {
		t.Fatal("the perturbation did not change the forecast; the test shows nothing")
	}
}

func TestInferCoreValidation(t *testing.T) {
	e, ws := fittedEngine(t)
	c, err := e.NewInferCore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ForwardBatch(nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	if _, err := c.ForwardBatch([]Window{{Values: ws[0].Values[:3]}}); err == nil {
		t.Fatal("short window must be rejected")
	}
	wide := *c
	wide.model = buildModel(e.cfg.Model, tensor.NewRNG(e.cfg.Seed), e.supports, e.in, 2*e.cfg.Hidden, e.cfg.K, e.meta.Horizon, e.meta.Nodes)
	if err := CheckSwap(c, &wide); err == nil {
		t.Fatal("a core with other parameter shapes must not replace the served one")
	}
	longer := *c
	longer.horizon++
	if err := CheckSwap(c, &longer); err == nil {
		t.Fatal("a core over another window shape must not replace the served one")
	}
	if c.Horizon() != e.meta.Horizon || c.Nodes() != e.meta.Nodes || c.Features() != e.in {
		t.Fatal("shape accessors disagree with the engine")
	}
	if c.ParamBytes() != nn.ParameterBytes(e.model) {
		t.Fatal("ParamBytes disagrees with the fitted model")
	}
}

func TestInferCoreBeforeFit(t *testing.T) {
	e := NewEngine(tinyCfg(Index))
	if _, err := e.NewInferCore(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("NewInferCore before fit: %v, want ErrNotFitted", err)
	}
	if _, err := e.ParamSnapshot(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("ParamSnapshot before fit: %v, want ErrNotFitted", err)
	}
}
