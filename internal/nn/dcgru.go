package nn

import (
	"pgti/internal/autograd"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// DCGRUCell is the diffusion-convolutional GRU cell at the heart of DCRNN:
// a GRU whose gate transforms are diffusion convolutions over the sensor
// graph, coupling spatial and temporal modeling in one recurrence.
type DCGRUCell struct {
	In, Hidden int
	gates      *DiffusionConv // [x,h] -> 2*Hidden (reset | update)
	candidate  *DiffusionConv // [x, r*h] -> Hidden
}

// NewDCGRUCell constructs a cell with the given input size, hidden size, and
// K diffusion hops per support.
func NewDCGRUCell(rng *tensor.RNG, name string, supports []*sparse.CSR, k, in, hidden int) *DCGRUCell {
	return &DCGRUCell{
		In:        in,
		Hidden:    hidden,
		gates:     NewDiffusionConv(rng, name+".gates", supports, k, in+hidden, 2*hidden),
		candidate: NewDiffusionConv(rng, name+".candidate", supports, k, in+hidden, hidden),
	}
}

// NewDCGRUCellOn constructs a cell over explicit Propagators — the
// spatial-sharding entry point (see NewDiffusionConvOn).
func NewDCGRUCellOn(rng *tensor.RNG, name string, props []Propagator, k, in, hidden int) *DCGRUCell {
	return &DCGRUCell{
		In:        in,
		Hidden:    hidden,
		gates:     NewDiffusionConvOn(rng, name+".gates", props, k, in+hidden, 2*hidden),
		candidate: NewDiffusionConvOn(rng, name+".candidate", props, k, in+hidden, hidden),
	}
}

// Parameters implements Module.
func (c *DCGRUCell) Parameters() []*Parameter {
	return append(c.gates.Parameters(), c.candidate.Parameters()...)
}

// InitState returns a zero hidden state [B, N, Hidden].
func (c *DCGRUCell) InitState(b, n int) *autograd.Variable {
	return autograd.Constant(tensor.New(b, n, c.Hidden))
}

// Step advances the recurrence one time step:
//
//	r, u = sigmoid(DConv([x, h]))
//	c~   = tanh(DConv([x, r*h]))
//	h'   = u*h + (1-u)*c~
func (c *DCGRUCell) Step(x, h *autograd.Variable) *autograd.Variable {
	xh := autograd.Concat(2, x, h)
	ru := autograd.Sigmoid(c.gates.Forward(xh))
	r := autograd.Slice(ru, 2, 0, c.Hidden)
	u := autograd.Slice(ru, 2, c.Hidden, 2*c.Hidden)
	cand := autograd.Tanh(c.candidate.Forward(autograd.Concat(2, x, autograd.Mul(r, h))))
	return autograd.Add(autograd.Mul(u, h), autograd.Mul(autograd.OneMinus(u), cand))
}
