package autograd

import (
	"fmt"
	"math"

	"pgti/internal/tensor"
)

// MAELoss returns the mean absolute error between pred and a constant
// target, as a scalar variable. MAE is the metric DCRNN and the PGT-I
// evaluation optimize and report.
func MAELoss(pred *Variable, target *tensor.Tensor) *Variable {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autograd: MAELoss shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	diff := tensor.BinaryInto(pred.arena.Like(target), pred.Value, target, sub)
	out := tensor.Scalar(diff.ApplyInto(pred.arena.Like(diff), math.Abs).MeanAll())
	n := float64(pred.Value.NumElements())
	if v := untracked(out, pred); v != nil {
		return v
	}
	return newOp("mae", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		scale := grad.Item() / n
		g := diff.ApplyInto(pred.arena.Like(diff), func(v float64) float64 {
			switch {
			case v > 0:
				return scale
			case v < 0:
				return -scale
			default:
				return 0
			}
		})
		dst[0] = g
	}, pred)
}

// MaskedMAELoss returns the MAE over entries where target != maskValue —
// the missing-data convention of the traffic benchmarks, where sensor
// dropouts are encoded as zeros and must not contribute gradient. Returns
// a zero-valued scalar (no gradient) when every entry is masked.
func MaskedMAELoss(pred *Variable, target *tensor.Tensor, maskValue float64) *Variable {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autograd: MaskedMAELoss shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	diff := tensor.BinaryInto(pred.arena.Like(target), pred.Value, target, sub)
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
	if v := untracked(out, pred); v != nil {
		return v
	}
	return newOp("maskedMAE", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		scale := grad.Item() / n
		g := pred.arena.ZerosLike(pred.Value)
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
		dst[0] = g
	}, pred)
}

// MSELoss returns the mean squared error between pred and a constant target.
func MSELoss(pred *Variable, target *tensor.Tensor) *Variable {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autograd: MSELoss shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	diff := tensor.BinaryInto(pred.arena.Like(target), pred.Value, target, sub)
	out := tensor.Scalar(tensor.BinaryInto(pred.arena.Like(diff), diff, diff, mul).MeanAll())
	n := float64(pred.Value.NumElements())
	if v := untracked(out, pred); v != nil {
		return v
	}
	return newOp("mse", out, func(grad *tensor.Tensor, dst []*tensor.Tensor) {
		s := 2 * grad.Item() / n
		dst[0] = diff.ApplyInto(pred.arena.Like(diff), func(x float64) float64 { return x * s })
	}, pred)
}
