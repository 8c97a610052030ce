// Package metrics provides the test-set MSE, the running means that average
// per-batch losses into per-epoch ones, and the training curve they fill.
// MAE, the paper's headline metric, is the training loss itself
// (autograd.MAELoss, autograd.MaskedMAELoss for missing sensor readings).
package metrics

import (
	"fmt"
	"math"

	"pgti/internal/tensor"
)

// MSE returns the mean squared error.
func MSE(pred, target *tensor.Tensor) float64 {
	checkShapes("MSE", pred, target)
	d := tensor.Sub(pred, target)
	return tensor.Mul(d, d).MeanAll()
}

func checkShapes(op string, a, b *tensor.Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("metrics: %s shape mismatch %v vs %v", op, a.Shape(), b.Shape()))
	}
}

// Running accumulates a streaming mean (Welford), used for per-epoch loss
// averaging across batches and workers.
type Running struct {
	n    int
	mean float64
}

// Add folds value in with the given weight (e.g. batch size).
func (r *Running) Add(value float64, weight int) {
	if weight <= 0 {
		return
	}
	r.n += weight
	r.mean += (value - r.mean) * float64(weight) / float64(r.n)
}

// Mean returns the current weighted mean (0 before any Add).
func (r *Running) Mean() float64 { return r.mean }

// Count returns the accumulated weight.
func (r *Running) Count() int { return r.n }

// EpochRecord is one row of a training curve.
type EpochRecord struct {
	Epoch    int
	TrainMAE float64
	ValMAE   float64
}

// Curve is a training/validation curve across epochs.
type Curve []EpochRecord

// BestVal returns the minimum validation MAE in the curve (+Inf if empty).
func (c Curve) BestVal() float64 {
	best := math.Inf(1)
	for _, r := range c {
		if r.ValMAE < best {
			best = r.ValMAE
		}
	}
	return best
}

// FinalTrain returns the last epoch's training MAE (NaN if empty).
func (c Curve) FinalTrain() float64 {
	if len(c) == 0 {
		return math.NaN()
	}
	return c[len(c)-1].TrainMAE
}
