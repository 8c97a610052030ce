package core

import (
	"fmt"
	"sync"

	"pgti/internal/autograd"
	"pgti/internal/nn"
	"pgti/internal/tensor"
)

// InferCore is the reusable inference heart shared by the one-shot Predictor
// and the serving tier's replica pool: trained parameters plus the training
// split's normalization statistics, exposed as a batched forward. It owns a
// mutex that serializes forwards against weight swaps, so a batch never
// observes a torn parameter snapshot — SwapParams either happens entirely
// before a ForwardBatch or entirely after it.
type InferCore struct {
	mu                       sync.Mutex
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
	c.mu.Lock()
	pred := c.model.Forward(autograd.Constant(x)).Value
	c.mu.Unlock()
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

// SwapParams installs a parameter snapshot (from Engine.ParamSnapshot on a
// freshly fitted run) atomically with respect to ForwardBatch: in-flight
// forwards finish on the old weights, later forwards see only the new ones.
func (c *InferCore) SwapParams(snap [][]float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nn.RestoreParams(c.model, snap)
}

// ParamSnapshot deep-copies the currently installed parameters, under the
// same mutex that serializes forwards and swaps. The serving tier captures
// this pre-swap generation before a pool-wide Swap so a mid-pool failure can
// roll the already-swapped replicas back to it.
func (c *InferCore) ParamSnapshot() [][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nn.SnapshotParams(c.model)
}

// NewInferCore builds a warm inference core over a private clone of the
// fitted model: the clone shares no tensors with the engine, so a pool of
// cores forwards concurrently and a later Fit (serve-while-retrain) never
// races the serving weights.
func (e *Engine) NewInferCore() (*InferCore, error) {
	if e.stage < stageFitted {
		return nil, fmt.Errorf("core: inference core before fit: %w", ErrNotFitted)
	}
	clone := buildModel(e.cfg.Model, e.cfg.Seed, e.supports, e.in, e.cfg.Hidden, e.cfg.K, e.meta.Horizon, e.meta.Nodes)
	if err := nn.RestoreParams(clone, nn.SnapshotParams(e.model)); err != nil {
		return nil, err
	}
	mean, std := e.data.Norm()
	return &InferCore{
		model:    clone,
		mean:     mean,
		std:      std,
		horizon:  e.meta.Horizon,
		nodes:    e.meta.Nodes,
		features: e.in,
	}, nil
}

// ParamSnapshot deep-copies the fitted parameters — the payload Server.Swap
// installs into every replica after a retrain.
func (e *Engine) ParamSnapshot() ([][]float64, error) {
	if e.stage < stageFitted {
		return nil, fmt.Errorf("core: parameter snapshot before fit: %w", ErrNotFitted)
	}
	return nn.SnapshotParams(e.model), nil
}
