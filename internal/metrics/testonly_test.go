package metrics

import (
	"math"

	"pgti/internal/tensor"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// MAE returns the mean absolute error between two same-shaped tensors.
func MAE(pred, target *tensor.Tensor) float64 {
	checkShapes("MAE", pred, target)
	return tensor.Sub(pred, target).Abs().MeanAll()
}

// RMSE returns the root mean squared error.
func RMSE(pred, target *tensor.Tensor) float64 { return math.Sqrt(MSE(pred, target)) }

// MaskedMAE returns the MAE over entries where target != maskValue,
// matching the missing-data convention of the traffic benchmarks (sensor
// dropouts are encoded as zeros). Returns 0 when everything is masked.
func MaskedMAE(pred, target *tensor.Tensor, maskValue float64) float64 {
	checkShapes("MaskedMAE", pred, target)
	p := pred.Contiguous().Data()
	tg := target.Contiguous().Data()
	var sum float64
	var n int
	for i := range tg {
		if tg[i] != maskValue {
			sum += math.Abs(p[i] - tg[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Merge combines another accumulator into r (used when reducing worker
// metrics).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	total := r.n + o.n
	r.mean = (r.mean*float64(r.n) + o.mean*float64(o.n)) / float64(total)
	r.n = total
}
