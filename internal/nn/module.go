// Package nn implements the neural network layers and models evaluated in
// the PGT-I paper: diffusion convolution, the DCGRU recurrent cell, the
// original encoder–decoder DCRNN, the lightweight PGT-DCRNN variant, A3T-GCN
// (TGCN + temporal attention) and an ST-LLM-lite transformer model, plus SGD
// and Adam optimizers. All models consume batched sequence-to-sequence
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

// CopyParameters copies src's parameter values into dst. The two modules
// must have identical parameter lists (same architecture); DDP uses this to
// replicate the model onto each worker.
func CopyParameters(dst, src Module) error {
	dp, sp := dst.Parameters(), src.Parameters()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if !dp[i].Tensor().SameShape(sp[i].Tensor()) {
			return fmt.Errorf("nn: parameter %q shape mismatch %v vs %v", dp[i].Name, dp[i].Tensor().Shape(), sp[i].Tensor().Shape())
		}
		dp[i].Tensor().CopyFrom(sp[i].Tensor())
	}
	return nil
}

// ParametersEqual reports whether two modules hold identical parameter
// values (used by DDP consistency tests).
func ParametersEqual(a, b Module, tol float64) bool {
	ap, bp := a.Parameters(), b.Parameters()
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if !ap[i].Tensor().AllClose(bp[i].Tensor(), tol) {
			return false
		}
	}
	return true
}

// stepInput extracts time step t from a batched window [B, T, N, F] as a
// [B, N, F] variable.
func stepInput(x *autograd.Variable, t int) *autograd.Variable {
	shape := x.Shape()
	return autograd.Reshape(autograd.Slice(x, 1, t, t+1), shape[0], shape[2], shape[3])
}
