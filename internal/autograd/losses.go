package autograd

import (
	"fmt"

	"pgti/internal/tensor"
)

// MAELoss returns the mean absolute error between pred and a constant
// target, as a scalar variable. MAE is the metric DCRNN and the PGT-I
// evaluation optimize and report.
func MAELoss(pred *Variable, target *tensor.Tensor) *Variable {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autograd: MAELoss shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	diff := tensor.Sub(pred.Value, target)
	out := tensor.Scalar(diff.Abs().MeanAll())
	n := float64(pred.Value.NumElements())
	return newOp("mae", out, []*Variable{pred}, func(grad *tensor.Tensor) []*tensor.Tensor {
		scale := grad.Item() / n
		g := diff.Apply(func(v float64) float64 {
			switch {
			case v > 0:
				return scale
			case v < 0:
				return -scale
			default:
				return 0
			}
		})
		return []*tensor.Tensor{g}
	})
}

// MaskedMAELoss returns the MAE over entries where target != maskValue —
// the missing-data convention of the traffic benchmarks, where sensor
// dropouts are encoded as zeros and must not contribute gradient. Returns
// a zero-valued scalar (no gradient) when every entry is masked.
func MaskedMAELoss(pred *Variable, target *tensor.Tensor, maskValue float64) *Variable {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autograd: MaskedMAELoss shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	diff := tensor.Sub(pred.Value, target)
	td := target.Contiguous().Data()
	dd := diff.Contiguous()
	var sum float64
	var count int
	for i, tv := range td {
		if tv != maskValue {
			v := dd.Data()[i]
			if v < 0 {
				v = -v
			}
			sum += v
			count++
		}
	}
	if count == 0 {
		return Constant(tensor.Scalar(0))
	}
	out := tensor.Scalar(sum / float64(count))
	n := float64(count)
	return newOp("maskedMAE", out, []*Variable{pred}, func(grad *tensor.Tensor) []*tensor.Tensor {
		scale := grad.Item() / n
		g := tensor.ZerosLike(pred.Value)
		gd := g.Data()
		ddv := dd.Data()
		for i, tv := range td {
			if tv == maskValue {
				continue
			}
			switch {
			case ddv[i] > 0:
				gd[i] = scale
			case ddv[i] < 0:
				gd[i] = -scale
			}
		}
		return []*tensor.Tensor{g}
	})
}

// MSELoss returns the mean squared error between pred and a constant target.
func MSELoss(pred *Variable, target *tensor.Tensor) *Variable {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autograd: MSELoss shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	diff := tensor.Sub(pred.Value, target)
	out := tensor.Scalar(tensor.Mul(diff, diff).MeanAll())
	n := float64(pred.Value.NumElements())
	return newOp("mse", out, []*Variable{pred}, func(grad *tensor.Tensor) []*tensor.Tensor {
		scale := 2 * grad.Item() / n
		return []*tensor.Tensor{diff.MulScalar(scale)}
	})
}
