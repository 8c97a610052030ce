package nn

import (
	"fmt"
	"math"

	"pgti/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with PyTorch's default
// hyperparameters, the optimizer used throughout the paper's evaluation.
type Adam struct {
	params       []*Parameter
	lr           float64
	beta1, beta2 float64
	eps          float64
	t            int
	m, v         []*tensor.Tensor
}

// NewAdam constructs an Adam optimizer with the standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(mod Module, lr float64) *Adam {
	params := mod.Parameters()
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Tensor().Shape()...)
		a.v[i] = tensor.New(p.Tensor().Shape()...)
	}
	return a
}

// Step implements Optimizer.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		if p.V.Grad == nil {
			continue
		}
		g := p.V.Grad.Contiguous().Data()
		md := a.m[i].Data()
		vd := a.v[i].Data()
		w := p.Tensor().Data()
		for j := range w {
			md[j] = a.beta1*md[j] + (1-a.beta1)*g[j]
			vd[j] = a.beta2*vd[j] + (1-a.beta2)*g[j]*g[j]
			mHat := md[j] / bc1
			vHat := vd[j] / bc2
			w[j] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
		p.V.ZeroGrad()
	}
}

// StepCount returns the number of optimizer steps taken (Adam's bias-
// correction time index t).
func (a *Adam) StepCount() int { return a.t }

// Moments returns the optimizer's first and second moment tensors, in
// parameter order. The slices alias the optimizer's live state; callers that
// serialize them must copy.
func (a *Adam) Moments() (m, v []*tensor.Tensor) { return a.m, a.v }

// RestoreMoments replaces the optimizer's moment estimates and step count —
// the deterministic-resume path: together with the parameters (checkpointed
// separately) this is Adam's entire state. It validates everything before
// it copies anything: on error the optimizer is unchanged.
func (a *Adam) RestoreMoments(m, v [][]float64, step int) error {
	if len(m) != len(a.params) || len(v) != len(a.params) {
		return fmt.Errorf("nn: optimizer state has %d/%d moment vectors, module has %d parameters", len(m), len(v), len(a.params))
	}
	if step < 0 {
		return fmt.Errorf("nn: negative optimizer step count %d", step)
	}
	for i, p := range a.params {
		n := p.Tensor().NumElements()
		if len(m[i]) != n || len(v[i]) != n {
			return fmt.Errorf("nn: optimizer state for %q has %d/%d elements, parameter has %d", p.Name, len(m[i]), len(v[i]), n)
		}
	}
	for i := range a.params {
		copy(a.m[i].Data(), m[i])
		copy(a.v[i].Data(), v[i])
	}
	a.t = step
	return nil
}

// ClipGradNorm rescales the module's gradients so their global L2 norm does
// not exceed maxNorm, returning the pre-clip norm. DCRNN training clips at
// 5.0 as in the reference implementation.
func ClipGradNorm(m Module, maxNorm float64) float64 {
	var sq float64
	params := m.Parameters()
	for _, p := range params {
		if p.V.Grad == nil {
			continue
		}
		g := p.V.Grad.Contiguous().Data()
		for _, x := range g {
			sq += x * x
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			if p.V.Grad != nil {
				p.V.Grad.ScaleInPlace(scale)
			}
		}
	}
	return norm
}

// ScaleLR applies the linear learning-rate scaling rule (Goyal et al.,
// cited by the paper as mitigation for large-global-batch accuracy loss):
// lr = base * workers.
func ScaleLR(base float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return base * float64(workers)
}
