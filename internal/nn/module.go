// Package nn implements the neural network layers and models evaluated in
// the PGT-I paper: diffusion convolution, the DCGRU recurrent cell, the
// original encoder–decoder DCRNN, the lightweight PGT-DCRNN variant, A3T-GCN
// (TGCN + temporal attention) and an ST-LLM-lite transformer model, plus the
// Adam optimizer. All models consume batched sequence-to-sequence
// snapshots of shape [B, T, N, F] and emit predictions [B, T', N, Fout].
package nn

import (
	"fmt"

	"pgti/internal/autograd"
	"pgti/internal/tensor"
)

// Parameter is a named trainable variable.
type Parameter struct {
	Name string
	V    *autograd.Variable
}

// Tensor returns the parameter's value tensor.
func (p *Parameter) Tensor() *tensor.Tensor { return p.V.Value }

// Module is anything owning trainable parameters.
type Module interface {
	Parameters() []*Parameter
}

// SeqModel is a sequence-to-sequence spatiotemporal model. Forward maps a
// batched input window [B, T, N, F] to a prediction [B, OutSteps, N, 1].
type SeqModel interface {
	Module
	Forward(x *autograd.Variable) *autograd.Variable
	OutSteps() int
}

// NumParameters returns the total scalar parameter count of a module.
func NumParameters(m Module) int {
	n := 0
	for _, p := range m.Parameters() {
		n += p.Tensor().NumElements()
	}
	return n
}

// ParameterBytes returns the parameter footprint in bytes (8 B/element).
func ParameterBytes(m Module) int64 { return int64(NumParameters(m)) * 8 }

// ZeroGrads clears the gradients of every parameter.
func ZeroGrads(m Module) {
	for _, p := range m.Parameters() {
		p.V.ZeroGrad()
	}
}

// SameShapes reports, as an error, the first difference between two
// modules' parameter lists — count or shape — or nil when they have the
// same architecture.
func SameShapes(a, b Module) error {
	ap, bp := a.Parameters(), b.Parameters()
	if len(ap) != len(bp) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if !ap[i].Tensor().SameShape(bp[i].Tensor()) {
			return fmt.Errorf("nn: parameter %q shape mismatch %v vs %v", ap[i].Name, ap[i].Tensor().Shape(), bp[i].Tensor().Shape())
		}
	}
	return nil
}

// CopyParameters copies src's parameter values into dst. The two modules
// must have identical parameter lists (same architecture); the serving tier
// clones a fitted model into a private copy with it.
func CopyParameters(dst, src Module) error {
	if err := SameShapes(dst, src); err != nil {
		return err
	}
	sp := src.Parameters()
	for i, p := range dst.Parameters() {
		p.Tensor().CopyFrom(sp[i].Tensor())
	}
	return nil
}

// stepInput extracts time step t from a batched window [B, T, N, F] as a
// [B, N, F] variable.
func stepInput(x *autograd.Variable, t int) *autograd.Variable {
	shape := x.Shape()
	return autograd.Reshape(autograd.Slice(x, 1, t, t+1), shape[0], shape[2], shape[3])
}
