// Package batching implements the paper's two spatiotemporal data pipelines:
//
//   - StandardPreprocess — Algorithm 1 of the paper, the sliding-window
//     materialization used by open-source ST-GNN tools. It is implemented
//     faithfully (snapshot list -> stack -> standardize), so its measured
//     memory growth reproduces eq. (1) plus the transient copies that drive
//     the paper's OOM results.
//   - IndexDataset — index-batching, the paper's contribution: one
//     standardized copy of the data plus window-start indices, with every
//     snapshot reconstructed at runtime as a zero-copy tensor view.
//
// It also provides the train/val/test split and the three shuffling
// strategies evaluated in the paper (global, local-partition, batch-level).
package batching

import (
	"fmt"
	"math"

	"pgti/internal/memsim"
	"pgti/internal/tensor"
)

// DefaultTrainFrac and friends are the paper's split: 70/10/20.
const (
	DefaultTrainFrac = 0.70
	DefaultValFrac   = 0.10
)

// StandardResult holds the materialized feature and label arrays of
// Algorithm 1, standardized by the training split's statistics.
type StandardResult struct {
	X, Y      *tensor.Tensor // [S, horizon, N, F]
	Mean, Std float64
	Horizon   int
}

// NumSnapshots returns the number of (x, y) pairs.
func (r *StandardResult) NumSnapshots() int { return r.X.Dim(0) }

// Batch gathers the given snapshot indices into fresh batched tensors of
// shape [B, horizon, N, F].
func (r *StandardResult) Batch(indices []int) (x, y *tensor.Tensor) {
	return r.X.GatherRows(indices), r.Y.GatherRows(indices)
}

// AssembleBatch implements Source: standard batching copies rows out of the
// materialized arrays, so buf is unused.
func (r *StandardResult) AssembleBatch(indices []int, _ *BatchBuffer) (x, y *tensor.Tensor) {
	return r.Batch(indices)
}

// Norm implements Source.
func (r *StandardResult) Norm() (mean, std float64) { return r.Mean, r.Std }

// Dims implements Source (entries is the length of the signal the windows
// were cut from).
func (r *StandardResult) Dims() (entries, horizon, nodes, features int) {
	return r.X.Dim(0) + 2*r.Horizon - 1, r.Horizon, r.X.Dim(2), r.X.Dim(3)
}

// StandardPreprocess runs Algorithm 1 on a [entries, nodes, features]
// signal: extract every overlapping (x, y) window pair as copies, stack
// them, and z-score them with the training split's mean/std. Every
// allocation is registered with mem (which may be capacity-limited), so the
// function fails with an OOM error at exactly the stage a real run would
// crash. The caller owns the accounting of `data` itself.
//
// The deliberate inefficiency — snapshot lists kept alive through stacking,
// standardization into fresh arrays — mirrors the reference implementations
// the paper analyzes; see Fig. 3.
func StandardPreprocess(data *tensor.Tensor, horizon int, trainFrac float64, mem *memsim.Tracker) (*StandardResult, error) {
	if data.Rank() != 3 {
		return nil, fmt.Errorf("batching: StandardPreprocess expects [entries, nodes, features], got %v", data.Shape())
	}
	if horizon < 1 {
		return nil, fmt.Errorf("batching: horizon must be >= 1, got %d", horizon)
	}
	entries := data.Dim(0)
	s := entries - (2*horizon - 1)
	if s <= 0 {
		return nil, fmt.Errorf("batching: %d entries too short for horizon %d", entries, horizon)
	}
	if trainFrac <= 0 || trainFrac > 1 {
		trainFrac = DefaultTrainFrac
	}
	if mem == nil {
		mem = memsim.NewTracker("unlimited", 0)
	}
	snapBytes := int64(horizon) * int64(data.Dim(1)) * int64(data.Dim(2)) * 8

	// Stage 2 (Fig. 3): sliding-window extraction into snapshot lists.
	// Each append copies horizon rows of the source.
	xList := make([]*tensor.Tensor, 0, s)
	yList := make([]*tensor.Tensor, 0, s)
	for start := 0; start < s; start++ {
		if err := mem.Alloc("swa.x_list", snapBytes); err != nil {
			return nil, fmt.Errorf("batching: SWA feature extraction: %w", err)
		}
		xList = append(xList, data.Slice(0, start, start+horizon).Clone())
		if err := mem.Alloc("swa.y_list", snapBytes); err != nil {
			return nil, fmt.Errorf("batching: SWA label extraction: %w", err)
		}
		yList = append(yList, data.Slice(0, start+horizon, start+2*horizon).Clone())
	}

	// Stage 3: stack into [S, horizon, N, F] arrays (lists stay alive until
	// the end of preprocessing, as in the reference implementations).
	if err := mem.Alloc("swa.x_stacked", snapBytes*int64(s)); err != nil {
		return nil, fmt.Errorf("batching: stacking features: %w", err)
	}
	x := tensor.Stack(0, xList...)
	if err := mem.Alloc("swa.y_stacked", snapBytes*int64(s)); err != nil {
		return nil, fmt.Errorf("batching: stacking labels: %w", err)
	}
	y := tensor.Stack(0, yList...)

	// Standardize with train-split statistics, materializing new arrays.
	trainS := int(math.Round(float64(s) * trainFrac))
	if trainS < 1 {
		trainS = 1
	}
	xTrain := x.Slice(0, 0, trainS)
	mean := xTrain.MeanAll()
	std := xTrain.StdAll()
	if std == 0 {
		std = 1
	}
	zscore := func(v float64) float64 { return (v - mean) / std }
	if err := mem.Alloc("standardize.x", snapBytes*int64(s)); err != nil {
		return nil, fmt.Errorf("batching: standardizing features: %w", err)
	}
	xStd := x.Apply(zscore)
	mem.Free("swa.x_stacked", snapBytes*int64(s))
	if err := mem.Alloc("standardize.y", snapBytes*int64(s)); err != nil {
		return nil, fmt.Errorf("batching: standardizing labels: %w", err)
	}
	yStd := y.Apply(zscore)
	mem.Free("swa.y_stacked", snapBytes*int64(s))

	// Preprocessing scope ends: the snapshot lists are released.
	mem.FreeAll("swa.x_list")
	mem.FreeAll("swa.y_list")

	return &StandardResult{X: xStd, Y: yStd, Mean: mean, Std: std, Horizon: horizon}, nil
}

// StandardRetainedBytes returns the bytes a StandardResult holds after
// preprocessing completes: eq. (1) of the paper.
func (r *StandardResult) StandardRetainedBytes() int64 {
	return r.X.NumBytes() + r.Y.NumBytes()
}
