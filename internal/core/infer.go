package core

import (
	"fmt"
	"sync/atomic"

	"pgti/internal/autograd"
	"pgti/internal/nn"
	"pgti/internal/tensor"
)

// InferCore is the reusable inference heart shared by the one-shot Predictor
// and the serving tier's replica pool: trained parameters plus the training
// split's normalization statistics, exposed as a batched forward. The
// forward records no tape and only reads the parameters, so any number of
// goroutines share one core. Each ForwardBatch loads the installed model
// once through an atomic pointer and SwapParams stores a new one, so a batch
// never observes a torn parameter snapshot: in-flight forwards finish on
// the model they loaded.
type InferCore struct {
	model                    atomic.Pointer[nn.SeqModel]
	build                    func() nn.SeqModel // a fresh model of the architecture
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
func (c *InferCore) ParamBytes() int64 { return nn.ParameterBytes(*c.model.Load()) }

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
	pred := (*c.model.Load()).Forward(autograd.NoGrad(x)).Value
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
// freshly fitted run) atomically with respect to ForwardBatch: it builds one
// new model and stores it, so in-flight forwards finish on the old weights
// and later forwards see only the new ones. A snapshot equal to the
// installed one is a no-op — the replicas of a serving pool share one core,
// and a pool-wide swap reaches it once per replica.
func (c *InferCore) SwapParams(snap [][]float64) error {
	if nn.ParamsMatch(*c.model.Load(), snap) {
		return nil
	}
	next := c.build()
	if err := nn.RestoreParams(next, snap); err != nil {
		return err
	}
	c.model.Store(&next)
	return nil
}

// ParamSnapshot deep-copies the currently installed parameters. The serving
// tier captures this pre-swap generation before a pool-wide Swap so a
// mid-pool failure can roll the already-swapped replicas back to it.
func (c *InferCore) ParamSnapshot() [][]float64 { return nn.SnapshotParams(*c.model.Load()) }

// NewInferCore builds a warm inference core over a private clone of the
// fitted model: the clone shares no tensors with the engine, so a later Fit
// (serve-while-retrain) never races the serving weights.
func (e *Engine) NewInferCore() (*InferCore, error) {
	if e.stage < stageFitted {
		return nil, fmt.Errorf("core: inference core before fit: %w", ErrNotFitted)
	}
	c := e.inferCore()
	clone := c.build()
	if err := nn.CopyParameters(clone, e.model); err != nil {
		return nil, err
	}
	c.model.Store(&clone)
	return c, nil
}

// inferCore returns a core over the engine's architecture and normalization
// statistics, with no model installed yet. Its build closure copies what it
// needs, so a serving core does not keep the engine and its data alive.
func (e *Engine) inferCore() *InferCore {
	kind, seed, supports, in := e.cfg.Model, e.cfg.Seed, e.supports, e.in
	hidden, k, horizon, nodes := e.cfg.Hidden, e.cfg.K, e.meta.Horizon, e.meta.Nodes
	mean, std := e.data.Norm()
	return &InferCore{
		build:    func() nn.SeqModel { return buildModel(kind, seed, supports, in, hidden, k, horizon, nodes) },
		mean:     mean,
		std:      std,
		horizon:  horizon,
		nodes:    nodes,
		features: in,
	}
}

// ParamSnapshot deep-copies the fitted parameters — the payload Server.Swap
// installs into every replica after a retrain.
func (e *Engine) ParamSnapshot() ([][]float64, error) {
	if e.stage < stageFitted {
		return nil, fmt.Errorf("core: parameter snapshot before fit: %w", ErrNotFitted)
	}
	return nn.SnapshotParams(e.model), nil
}
