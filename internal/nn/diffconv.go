package nn

import (
	"fmt"

	"pgti/internal/autograd"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// Propagator applies one support matrix to node-major features: it maps
// [Nodes, F] to [Nodes, F], where Nodes is the node count this worker sees.
// The full-graph implementation wraps a CSR support; the spatially-sharded
// implementation (internal/shard) wraps a local row block plus a halo
// exchange, letting the same model code run on a node partition.
type Propagator interface {
	// Nodes returns the (local) node count of the features it consumes.
	Nodes() int
	// Propagate applies the support matrix once.
	Propagate(x *autograd.Variable) *autograd.Variable
}

// CSRPropagator is the full-graph Propagator: one SpMM against the support.
type CSRPropagator struct{ S *sparse.CSR }

// Nodes implements Propagator.
func (p CSRPropagator) Nodes() int { return p.S.RowsN }

// Propagate implements Propagator.
func (p CSRPropagator) Propagate(x *autograd.Variable) *autograd.Variable {
	return autograd.SpMM(p.S, x)
}

// WrapSupports lifts CSR support matrices into full-graph Propagators.
func WrapSupports(supports []*sparse.CSR) []Propagator {
	props := make([]Propagator, len(supports))
	for i, s := range supports {
		props[i] = CSRPropagator{S: s}
	}
	return props
}

// DiffusionConv implements the diffusion convolution of Li et al. (DCRNN):
//
//	H = sum_{s in supports} sum_{k=0..K} theta_{s,k} (S_s)^k X
//
// realized, as in the reference implementation, by concatenating the powers
// [X, S1 X, S1^2 X, ..., S2 X, ...] along the feature axis followed by a
// single dense projection. Supports are the forward/backward random-walk
// transition matrices of the sensor graph; they are constants (the graph
// topology is static), so only the projection carries gradients. Under
// spatial sharding the supports are per-worker row blocks whose Propagators
// exchange halo rows, and the node axis is the worker's own node count.
type DiffusionConv struct {
	props   []Propagator
	K       int
	In, Out int
	proj    *Linear
}

// NewDiffusionConv constructs a diffusion-convolution layer with K hops per
// support matrix.
func NewDiffusionConv(rng *tensor.RNG, name string, supports []*sparse.CSR, k, in, out int) *DiffusionConv {
	return NewDiffusionConvOn(rng, name, WrapSupports(supports), k, in, out)
}

// NewDiffusionConvOn constructs the layer over explicit Propagators — the
// spatial-sharding entry point. Parameter initialization consumes the rng
// identically to NewDiffusionConv for the same (k, len(props), in, out), so
// sharded and full-graph replicas built from the same seed hold identical
// weights.
func NewDiffusionConvOn(rng *tensor.RNG, name string, props []Propagator, k, in, out int) *DiffusionConv {
	if len(props) == 0 {
		panic("nn: DiffusionConv needs at least one support matrix")
	}
	if k < 1 {
		panic(fmt.Sprintf("nn: DiffusionConv needs K >= 1, got %d", k))
	}
	mats := 1 + k*len(props)
	return &DiffusionConv{
		props: props,
		K:     k,
		In:    in,
		Out:   out,
		proj:  NewLinear(rng, name+".proj", mats*in, out),
	}
}

// Parameters implements Module.
func (dc *DiffusionConv) Parameters() []*Parameter { return dc.proj.Parameters() }

// Forward maps node features [B, N, In] to [B, N, Out] using the propagators
// the layer was constructed with (the static-graph case; N is the local node
// count under sharding).
func (dc *DiffusionConv) Forward(x *autograd.Variable) *autograd.Variable {
	shape := x.Shape()
	if len(shape) != 3 || shape[2] != dc.In {
		panic(fmt.Sprintf("nn: DiffusionConv expects [B,N,%d], got %v", dc.In, shape))
	}
	b, n, c := shape[0], shape[1], shape[2]
	if n != dc.props[0].Nodes() {
		panic(fmt.Sprintf("nn: DiffusionConv graph has %d nodes, input has %d", dc.props[0].Nodes(), n))
	}
	// SpMM contracts over the node axis, so fold batch and channels together:
	// [B,N,C] -> [N, B*C].
	xNodeMajor := autograd.Reshape(autograd.Transpose(x, 0, 1), n, b*c)
	feats := []*autograd.Variable{xNodeMajor}
	for _, p := range dc.props {
		cur := xNodeMajor
		for k := 0; k < dc.K; k++ {
			cur = p.Propagate(cur)
			feats = append(feats, cur)
		}
	}
	// Reassemble each power as [N,B,C], concat on the channel axis, restore
	// batch-major layout, and project.
	parts := make([]*autograd.Variable, len(feats))
	for i, f := range feats {
		parts[i] = autograd.Reshape(f, n, b, c)
	}
	stacked := autograd.Concat(2, parts...)                      // [N, B, C*mats]
	batchMajor := autograd.Transpose(stacked, 0, 1)              // [B, N, C*mats]
	flat := autograd.Reshape(batchMajor, b*n, len(feats)*c)      // [B*N, C*mats]
	return autograd.Reshape(dc.proj.Forward(flat), b, n, dc.Out) // [B, N, Out]
}
