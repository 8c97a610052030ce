package core

import (
	"fmt"

	"pgti/internal/autograd"
	"pgti/internal/nn"
	"pgti/internal/tensor"
)

// InferCore is the reusable inference heart shared by the one-shot Predictor
// and the serving tier: a trained model plus the training split's
// normalization statistics and window shape, exposed as a batched forward.
// Every field is set once, at construction, and never changes: the forward
// records no tape and only reads the parameters, so any number of goroutines
// share one core. Replacing a served model means building a new core and
// storing a pointer to it — the serving front end owns that pointer.
type InferCore struct {
	model                    nn.SeqModel
	mean, std                float64
	horizon, nodes, features int
}

// Horizon returns the forecast length in time steps (the input window must
// be the same length).
func (c *InferCore) Horizon() int { return c.horizon }

// Nodes returns the sensor count.
func (c *InferCore) Nodes() int { return c.nodes }

// Features returns the per-node feature count of an input window.
func (c *InferCore) Features() int { return c.features }

// CheckWindow validates a raw window's length against the model's
// horizon*nodes*features contract.
func (c *InferCore) CheckWindow(w Window) error {
	want := c.horizon * c.nodes * c.features
	if len(w.Values) != want {
		return fmt.Errorf("core: window has %d values, want horizon*nodes*features = %d*%d*%d = %d",
			len(w.Values), c.horizon, c.nodes, c.features, want)
	}
	return nil
}

// ParamBytes returns the model's parameter footprint in bytes — the weight
// volume a device would stream per forward launch, which the serving tier's
// cost model amortizes across a coalesced batch.
func (c *InferCore) ParamBytes() int64 { return nn.ParameterBytes(c.model) }

// ForwardBatch standardizes b raw windows into one [b, horizon, nodes,
// features] tensor, runs a single forward, and un-z-scores each sample into
// its own Forecast. Every kernel on the forward path accumulates each output
// element independently of sibling batch rows, so sample i of a coalesced
// batch is bitwise identical to a ForwardBatch of that window alone — the
// equivalence contract the serving tier's coalescing queue relies on.
func (c *InferCore) ForwardBatch(ws []Window) ([]Forecast, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("core: ForwardBatch needs at least one window")
	}
	for _, w := range ws {
		if err := c.CheckWindow(w); err != nil {
			return nil, err
		}
	}
	b := len(ws)
	per := c.horizon * c.nodes * c.features
	x := tensor.New(b, c.horizon, c.nodes, c.features)
	d := x.Data()
	for s, w := range ws {
		base := s * per
		for i, v := range w.Values {
			d[base+i] = (v - c.mean) / c.std
		}
	}
	pred := c.model.Forward(autograd.NoGrad(x)).Value
	out := make([]Forecast, b)
	h := pred.Dim(1)
	for s := range ws {
		f := Forecast{
			SnapshotIndex: -1,
			Horizon:       h,
			Nodes:         c.nodes,
			Pred:          make([]float64, 0, h*c.nodes),
		}
		for t := 0; t < h; t++ {
			for nd := 0; nd < c.nodes; nd++ {
				f.Pred = append(f.Pred, pred.At(s, t, nd, 0)*c.std+c.mean)
			}
		}
		out[s] = f
	}
	return out, nil
}

// CheckSwap reports why next cannot replace live — a different window
// shape or parameter layout — or nil when it can. The serving tier installs
// a replacement core only past this check, so a swap never changes what a
// request must look like or what a launch costs.
func CheckSwap(live, next *InferCore) error {
	if next.horizon != live.horizon || next.nodes != live.nodes || next.features != live.features {
		return fmt.Errorf("core: model takes horizon*nodes*features %d*%d*%d, the served one %d*%d*%d",
			next.horizon, next.nodes, next.features, live.horizon, live.nodes, live.features)
	}
	return nn.SameShapes(next.model, live.model)
}

// NewInferCore builds a warm inference core over a private clone of the
// fitted model: the clone shares no tensors with the engine, so a later Fit
// (serve-while-retrain) never races the serving weights. The clone is built
// with zero weights, which the copy then overwrites.
func (e *Engine) NewInferCore() (*InferCore, error) {
	if e.stage < stageFitted {
		return nil, fmt.Errorf("core: inference core before fit: %w", ErrNotFitted)
	}
	clone := buildModel(e.cfg.Model, nil, e.supports, e.in, e.cfg.Hidden, e.cfg.K, e.meta.Horizon, e.meta.Nodes)
	if err := nn.CopyParameters(clone, e.model); err != nil {
		return nil, err
	}
	return e.inferCore(clone), nil
}

// inferCore wraps model with the engine's normalization statistics and
// window shape. It copies what it needs, so a serving core does not keep the
// engine and its data alive.
func (e *Engine) inferCore(model nn.SeqModel) *InferCore {
	mean, std := e.data.Norm()
	return &InferCore{
		model:    model,
		mean:     mean,
		std:      std,
		horizon:  e.meta.Horizon,
		nodes:    e.meta.Nodes,
		features: e.in,
	}
}

// ParamSnapshot deep-copies the fitted parameters — the warm start a rolling
// retrain hands its next round.
func (e *Engine) ParamSnapshot() ([][]float64, error) {
	if e.stage < stageFitted {
		return nil, fmt.Errorf("core: parameter snapshot before fit: %w", ErrNotFitted)
	}
	return nn.SnapshotParams(e.model), nil
}
