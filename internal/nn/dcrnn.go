package nn

import (
	"fmt"

	"pgti/internal/autograd"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// DCRNN is the original encoder–decoder diffusion-convolutional recurrent
// network of Li et al.: a stack of DCGRU layers encodes the input window
// into hidden states, and a second stack decodes autoregressively for
// Horizon steps, projecting each hidden state to the target feature.
// This is the "baseline PyTorch DCRNN" of the paper's case study.
type DCRNN struct {
	In, Hidden, Layers, Horizon int
	encoder                     []*DCGRUCell
	decoder                     []*DCGRUCell
	proj                        *Linear
}

// DCRNNConfig collects DCRNN hyperparameters. Defaults follow the paper's
// setup (Mallick et al. hyperparameters): 2 layers, 64 hidden units, K=2.
type DCRNNConfig struct {
	In      int // input features per node
	Hidden  int // hidden units per layer
	Layers  int // stacked DCGRU layers
	K       int // diffusion steps per support
	Horizon int // output steps to predict
}

func (c *DCRNNConfig) fillDefaults() {
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.K == 0 {
		c.K = 2
	}
}

// NewDCRNN constructs the encoder-decoder model over the given supports.
func NewDCRNN(rng *tensor.RNG, supports []*sparse.CSR, cfg DCRNNConfig) *DCRNN {
	return NewDCRNNOn(rng, WrapSupports(supports), cfg)
}

// NewDCRNNOn constructs the model over explicit Propagators — the
// spatial-sharding entry point. Identical rng consumption to NewDCRNN.
func NewDCRNNOn(rng *tensor.RNG, props []Propagator, cfg DCRNNConfig) *DCRNN {
	cfg.fillDefaults()
	if cfg.In <= 0 || cfg.Horizon <= 0 {
		panic(fmt.Sprintf("nn: DCRNN requires In and Horizon > 0, got %+v", cfg))
	}
	m := &DCRNN{In: cfg.In, Hidden: cfg.Hidden, Layers: cfg.Layers, Horizon: cfg.Horizon}
	for l := 0; l < cfg.Layers; l++ {
		encIn := cfg.In
		decIn := 1 // decoder consumes its own single-feature prediction
		if l > 0 {
			encIn = cfg.Hidden
			decIn = cfg.Hidden
		}
		m.encoder = append(m.encoder, NewDCGRUCellOn(rng, fmt.Sprintf("dcrnn.enc%d", l), props, cfg.K, encIn, cfg.Hidden))
		m.decoder = append(m.decoder, NewDCGRUCellOn(rng, fmt.Sprintf("dcrnn.dec%d", l), props, cfg.K, decIn, cfg.Hidden))
	}
	m.proj = NewLinear(rng, "dcrnn.proj", cfg.Hidden, 1)
	return m
}

// Parameters implements Module.
func (m *DCRNN) Parameters() []*Parameter {
	var ps []*Parameter
	for _, c := range m.encoder {
		ps = append(ps, c.Parameters()...)
	}
	for _, c := range m.decoder {
		ps = append(ps, c.Parameters()...)
	}
	return append(ps, m.proj.Parameters()...)
}

// OutSteps implements SeqModel.
func (m *DCRNN) OutSteps() int { return m.Horizon }

// Forward encodes x [B, T, N, In] and decodes Horizon steps, returning
// predictions [B, Horizon, N, 1].
func (m *DCRNN) Forward(x *autograd.Variable) *autograd.Variable {
	return m.forward(x, nil, 0, nil)
}

func (m *DCRNN) forward(x *autograd.Variable, target *tensor.Tensor, teacherProb float64, rng *tensor.RNG) *autograd.Variable {
	shape := x.Shape()
	if len(shape) != 4 || shape[3] != m.In {
		panic(fmt.Sprintf("nn: DCRNN expects [B,T,N,%d], got %v", m.In, shape))
	}
	b, steps, n := shape[0], shape[1], shape[2]

	// Encode.
	hs := make([]*autograd.Variable, m.Layers)
	for l, cell := range m.encoder {
		hs[l] = cell.InitState(b, n)
	}
	for t := 0; t < steps; t++ {
		input := stepInput(x, t)
		for l, cell := range m.encoder {
			hs[l] = cell.Step(input, hs[l])
			input = hs[l]
		}
	}

	// Decode autoregressively from a zero "GO" symbol, optionally teacher-
	// forced.
	dh := make([]*autograd.Variable, m.Layers)
	copy(dh, hs)
	goSym := autograd.Constant(tensor.New(b, n, 1))
	outputs := make([]*autograd.Variable, 0, m.Horizon)
	input := goSym
	for t := 0; t < m.Horizon; t++ {
		layerIn := input
		for l, cell := range m.decoder {
			dh[l] = cell.Step(layerIn, dh[l])
			layerIn = dh[l]
		}
		out := m.proj.Forward(dh[m.Layers-1]) // [B, N, 1]
		outputs = append(outputs, out)
		input = out
		if target != nil && rng != nil && rng.Float64() < teacherProb {
			// Feed the ground truth for this step instead of the prediction.
			truth := target.Slice(1, t, t+1).Reshape(b, n, 1)
			input = autograd.Constant(truth)
		}
	}
	return autograd.Stack(1, outputs...) // [B, Horizon, N, 1]
}

// PGTDCRNN is the lightweight PGT variant used throughout the paper's
// evaluation: a single spatiotemporal DCGRU layer applied stepwise, emitting
// a projection of the hidden state at every step, so the prediction sequence
// has the same length as the input window. It omits the encoder-decoder
// structure (paper §3: "a lightweight variant that uses a single
// spatiotemporal diffusion convolution layer").
type PGTDCRNN struct {
	In, Hidden, Steps int
	cell              *DCGRUCell
	proj              *Linear
}

// NewPGTDCRNN constructs the single-layer stepwise model. steps is the
// input window length (= prediction length).
func NewPGTDCRNN(rng *tensor.RNG, supports []*sparse.CSR, k, in, hidden, steps int) *PGTDCRNN {
	return NewPGTDCRNNOn(rng, WrapSupports(supports), k, in, hidden, steps)
}

// NewPGTDCRNNOn constructs the model over explicit Propagators — the
// spatial-sharding entry point. Identical rng consumption to NewPGTDCRNN.
func NewPGTDCRNNOn(rng *tensor.RNG, props []Propagator, k, in, hidden, steps int) *PGTDCRNN {
	if hidden == 0 {
		hidden = 64
	}
	if k == 0 {
		k = 2
	}
	return &PGTDCRNN{
		In:     in,
		Hidden: hidden,
		Steps:  steps,
		cell:   NewDCGRUCellOn(rng, "pgtdcrnn.cell", props, k, in, hidden),
		proj:   NewLinear(rng, "pgtdcrnn.proj", hidden, 1),
	}
}

// Parameters implements Module.
func (m *PGTDCRNN) Parameters() []*Parameter {
	return append(m.cell.Parameters(), m.proj.Parameters()...)
}

// OutSteps implements SeqModel.
func (m *PGTDCRNN) OutSteps() int { return m.Steps }

// Forward maps x [B, T, N, In] to stepwise predictions [B, T, N, 1],
// maintaining a hidden state across the window.
func (m *PGTDCRNN) Forward(x *autograd.Variable) *autograd.Variable {
	shape := x.Shape()
	if len(shape) != 4 || shape[3] != m.In {
		panic(fmt.Sprintf("nn: PGTDCRNN expects [B,T,N,%d], got %v", m.In, shape))
	}
	b, steps, n := shape[0], shape[1], shape[2]
	h := m.cell.InitState(b, n)
	outputs := make([]*autograd.Variable, 0, steps)
	for t := 0; t < steps; t++ {
		h = m.cell.Step(stepInput(x, t), h)
		outputs = append(outputs, m.proj.Forward(h))
	}
	return autograd.Stack(1, outputs...) // [B, T, N, 1]
}
