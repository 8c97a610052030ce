package autograd

import (
	"fmt"
	"math"

	"pgti/internal/tensor"
)

// Div returns the element-wise quotient a / b with broadcasting.
func Div(a, b *Variable) *Variable {
	out := tensor.Div(a.Value, b.Value)
	return newOp("div", out, []*Variable{a, b}, func(grad *tensor.Tensor) []*tensor.Tensor {
		ga := tensor.Div(grad, b.Value)
		// d(a/b)/db = -a/b^2
		gb := tensor.Mul(grad, tensor.Div(out, b.Value)).Neg()
		return []*tensor.Tensor{
			reduceGradTo(ga, a.Value),
			reduceGradTo(gb, b.Value),
		}
	})
}

// Exp returns e^a element-wise.
func Exp(a *Variable) *Variable {
	out := a.Value.Exp()
	return newOp("exp", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Mul(grad, out)}
	})
}

// Log returns ln(a) element-wise.
func Log(a *Variable) *Variable {
	out := a.Value.Log()
	return newOp("log", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Div(grad, a.Value)}
	})
}

// Sqrt returns the element-wise square root.
func Sqrt(a *Variable) *Variable {
	out := a.Value.Sqrt()
	return newOp("sqrt", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		den := out.MulScalar(2)
		return []*tensor.Tensor{tensor.Div(grad, den)}
	})
}

// Pow returns a^p element-wise for a constant exponent p.
func Pow(a *Variable, p float64) *Variable {
	out := a.Value.Pow(p)
	return newOp("pow", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		d := a.Value.Pow(p - 1).MulScalar(p)
		return []*tensor.Tensor{tensor.Mul(grad, d)}
	})
}

// SumAxis reduces along axis by summation, removing the axis.
func SumAxis(a *Variable, axis int) *Variable {
	out := a.Value.Sum(axis)
	n := a.Value.Dim(axis)
	return newOp("sumAxis", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		expanded := grad.Unsqueeze(axis).BroadcastTo(insertAxis(grad.Shape(), axis, n)...)
		return []*tensor.Tensor{expanded.Clone()}
	})
}

// MeanAxis reduces along axis by arithmetic mean, removing the axis.
func MeanAxis(a *Variable, axis int) *Variable {
	n := a.Value.Dim(axis)
	return ScalarMul(SumAxis(a, axis), 1/float64(n))
}

func insertAxis(shape []int, axis, size int) []int {
	out := make([]int, 0, len(shape)+1)
	out = append(out, shape[:axis]...)
	out = append(out, size)
	out = append(out, shape[axis:]...)
	return out
}

// BMM returns the batched matrix product [B,m,k] x [B,k,n] -> [B,m,n].
func BMM(a, b *Variable) *Variable {
	out := tensor.BMM(a.Value, b.Value)
	return newOp("bmm", out, []*Variable{a, b}, func(grad *tensor.Tensor) []*tensor.Tensor {
		// grad_a[i] = grad[i] @ b[i]^T ; grad_b[i] = a[i]^T @ grad[i]
		bt := b.Value.Transpose(1, 2).Contiguous()
		at := a.Value.Transpose(1, 2).Contiguous()
		return []*tensor.Tensor{
			tensor.BMM(grad, bt),
			tensor.BMM(at, grad),
		}
	})
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
	return newOp("dropout", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Mul(grad, mask)}
	})
}

// Clamp restricts values to [lo, hi]; gradients pass only through elements
// strictly inside the interval (the straight-through boundary convention).
func Clamp(a *Variable, lo, hi float64) *Variable {
	out := a.Value.Clamp(lo, hi)
	return newOp("clamp", out, []*Variable{a}, func(grad *tensor.Tensor) []*tensor.Tensor {
		mask := a.Value.Apply(func(v float64) float64 {
			if v > lo && v < hi {
				return 1
			}
			return 0
		})
		return []*tensor.Tensor{tensor.Mul(grad, mask)}
	})
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
	return newOp("huber", out, []*Variable{pred}, func(grad *tensor.Tensor) []*tensor.Tensor {
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
		return []*tensor.Tensor{g}
	})
}
