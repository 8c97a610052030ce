package autograd

import (
	"fmt"
	"math"

	"pgti/internal/tensor"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// IsLeaf reports whether the variable was created directly (not by an op).
func (v *Variable) IsLeaf() bool { return v.op == nil }

// Detach returns a constant view of the variable's value, cutting the graph.
// RNN training uses this to truncate backpropagation between batches.
func (v *Variable) Detach() *Variable { return Constant(v.Value) }

// BackwardWithGrad runs backpropagation from v with an explicit seed
// gradient of the same shape as v's value.
func BackwardWithGrad(v *Variable, seed *tensor.Tensor) error {
	return BackwardWithHook(v, seed, nil)
}

// BackwardHooked is Backward (scalar output, unit seed) with a
// gradient-ready hook.
func BackwardHooked(v *Variable, hook GradHook) error {
	if v.Value.NumElements() != 1 {
		return fmt.Errorf("autograd: Backward requires a scalar output, got shape %v", v.Value.Shape())
	}
	return backward(v, tensor.FullLike(1, v.Value), hook)
}

// BackwardWithHook is BackwardWithGrad with a gradient-ready hook: as the
// reverse sweep retires the last consumer of each gradient-requiring leaf,
// hook fires with that leaf (its Grad is final, though possibly nil when no
// gradient flowed to it). A nil hook degenerates to BackwardWithGrad. The
// seed stays the caller's: the root accumulates a copy.
func BackwardWithHook(v *Variable, seed *tensor.Tensor, hook GradHook) error {
	if !v.Value.SameShape(seed) {
		return fmt.Errorf("autograd: seed gradient shape %v does not match output shape %v", seed.Shape(), v.Value.Shape())
	}
	return backward(v, seed.Clone(), hook)
}

// Sub returns a - b with broadcasting.
func Sub(a, b *Variable) *Variable {
	out := tensor.Sub(a.Value, b.Value)
	if v := untracked(out, a, b); v != nil {
		return v
	}
	return newOp("sub", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0], dst[1] = reduceGradTo(grad, a.Value), reduceGradTo(grad.Neg(), b.Value)
	}, a, b)
}

// Neg returns -a.
func Neg(a *Variable) *Variable {
	out := a.Value.Neg()
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("neg", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = grad.Neg() }, a)
}

// AddScalar returns a + s for a constant scalar s.
func AddScalar(a *Variable, s float64) *Variable {
	out := a.Value.AddScalar(s)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("addScalar", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = grad }, a)
}

// GatherRows selects rows of a (axis 0) by index — the embedding-lookup
// primitive. Backward scatter-adds the gradient into the selected rows.
func GatherRows(a *Variable, indices []int) *Variable {
	out := a.Value.GatherRows(indices)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("gatherRows", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		full := tensor.ZerosLike(a.Value)
		for i, idx := range indices {
			full.Index(0, idx).AddInPlace(grad.Index(0, i))
		}
		dst[0] = full
	}, a)
}

// div is the element-wise quotient a / b with broadcasting.
func div(a, b *tensor.Tensor) *tensor.Tensor {
	return tensor.Binary(a, b, func(x, y float64) float64 { return x / y })
}

// Div returns the element-wise quotient a / b with broadcasting.
func Div(a, b *Variable) *Variable {
	out := div(a.Value, b.Value)
	if v := untracked(out, a, b); v != nil {
		return v
	}
	return newOp("div", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		ga := div(grad, b.Value)
		// d(a/b)/db = -a/b^2
		gb := tensor.Mul(grad, div(out, b.Value)).Neg()
		dst[0], dst[1] = reduceGradTo(ga, a.Value), reduceGradTo(gb, b.Value)
	}, a, b)
}

// Exp returns e^a element-wise.
func Exp(a *Variable) *Variable {
	out := a.Value.Apply(math.Exp)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("exp", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = tensor.Mul(grad, out) }, a)
}

// Log returns ln(a) element-wise.
func Log(a *Variable) *Variable {
	out := a.Value.Apply(math.Log)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("log", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = div(grad, a.Value) }, a)
}

// Sqrt returns the element-wise square root.
func Sqrt(a *Variable) *Variable {
	out := a.Value.Apply(math.Sqrt)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("sqrt", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = div(grad, out.MulScalar(2)) }, a)
}

// Pow returns a^p element-wise for a constant exponent p.
func Pow(a *Variable, p float64) *Variable {
	out := a.Value.Apply(func(v float64) float64 { return math.Pow(v, p) })
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("pow", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0] = tensor.Mul(grad, a.Value.Apply(func(v float64) float64 { return math.Pow(v, p-1) }).MulScalar(p))
	}, a)
}

// SumAxis reduces along axis by summation, removing the axis.
func SumAxis(a *Variable, axis int) *Variable {
	out := a.Value.Sum(axis)
	n := a.Value.Dim(axis)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("sumAxis", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		dst[0] = tensor.Add(tensor.New(insertAxis(grad.Shape(), axis, n)...), grad.Unsqueeze(axis))
	}, a)
}

// MeanAxis reduces along axis by arithmetic mean, removing the axis.
func MeanAxis(a *Variable, axis int) *Variable {
	n := a.Value.Dim(axis)
	return ScalarMul(SumAxis(a, axis), 1/float64(n))
}

// Dropout zeroes elements with probability p (inverted dropout: survivors
// are scaled by 1/(1-p)), using the supplied deterministic generator.
// With p <= 0 it is the identity.
func Dropout(a *Variable, p float64, rng *tensor.RNG) *Variable {
	if p <= 0 {
		return a
	}
	if p >= 1 {
		panic(fmt.Sprintf("autograd: Dropout probability %v must be < 1", p))
	}
	mask := tensor.ZerosLike(a.Value)
	md := mask.Data()
	scale := 1 / (1 - p)
	for i := range md {
		if rng.Float64() >= p {
			md[i] = scale
		}
	}
	out := tensor.Mul(a.Value, mask)
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("dropout", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) { dst[0] = tensor.Mul(grad, mask) }, a)
}

// Clamp restricts values to [lo, hi]; gradients pass only through elements
// strictly inside the interval (the straight-through boundary convention).
func Clamp(a *Variable, lo, hi float64) *Variable {
	out := a.Value.Apply(func(v float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
	if v := untracked(out, a); v != nil {
		return v
	}
	return newOp("clamp", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		mask := a.Value.Apply(func(v float64) float64 {
			if v > lo && v < hi {
				return 1
			}
			return 0
		})
		dst[0] = tensor.Mul(grad, mask)
	}, a)
}

// HuberLoss is the smooth-L1 loss with threshold delta against a constant
// target — the robust alternative some DCRNN variants train with.
func HuberLoss(pred *Variable, target *tensor.Tensor, delta float64) *Variable {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autograd: HuberLoss shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	if delta <= 0 {
		delta = 1
	}
	diff := tensor.Sub(pred.Value, target)
	n := float64(pred.Value.NumElements())
	var sum float64
	dd := diff.Contiguous().Data()
	for _, v := range dd {
		av := math.Abs(v)
		if av <= delta {
			sum += 0.5 * v * v
		} else {
			sum += delta * (av - 0.5*delta)
		}
	}
	out := tensor.Scalar(sum / n)
	if v := untracked(out, pred); v != nil {
		return v
	}
	return newOp("huber", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		scale := grad.Item() / n
		g := diff.Apply(func(v float64) float64 {
			if math.Abs(v) <= delta {
				return scale * v
			}
			if v > 0 {
				return scale * delta
			}
			return -scale * delta
		})
		dst[0] = g
	}, pred)
}

func insertAxis(shape []int, axis, size int) []int {
	out := make([]int, 0, len(shape)+1)
	out = append(out, shape[:axis]...)
	out = append(out, size)
	out = append(out, shape[axis:]...)
	return out
}
