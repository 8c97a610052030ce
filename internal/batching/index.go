package batching

import (
	"fmt"
	"math"

	"pgti/internal/memsim"
	"pgti/internal/parallel"
	"pgti/internal/tensor"
)

// IndexDataset is the paper's index-batching data structure: one
// standardized copy of the signal, plus the array of window-start graph IDs.
// Snapshot i is reconstructed on demand as the pair of zero-copy views
//
//	x = data[start : start+horizon]
//	y = data[start+horizon : start+2*horizon]
//
// so the structure's footprint is eq. (2): entries*nodes*features*8 bytes of
// data plus 8 bytes per snapshot of indices, independent of the horizon.
type IndexDataset struct {
	Data      *tensor.Tensor // standardized [entries, nodes, features]
	Horizon   int
	Mean, Std float64
	Starts    []int // graph IDs of the first entry of each snapshot
}

// NewIndexDataset builds an IndexDataset over data (standardizing it IN
// PLACE — the dataset takes ownership, eliminating the duplicate copies of
// Algorithm 1). Only the index array is newly allocated; it is registered
// with mem under "index.starts".
//
// The training-split statistics are computed with per-row window-coverage
// weights, which makes them algebraically identical to Algorithm 1's
// mean/std over the materialized x_train — without materializing anything.
func NewIndexDataset(data *tensor.Tensor, horizon int, trainFrac float64, mem *memsim.Tracker) (*IndexDataset, error) {
	if data.Rank() != 3 {
		return nil, fmt.Errorf("batching: NewIndexDataset expects [entries, nodes, features], got %v", data.Shape())
	}
	if horizon < 1 {
		return nil, fmt.Errorf("batching: horizon must be >= 1, got %d", horizon)
	}
	if !data.IsContiguous() {
		return nil, fmt.Errorf("batching: NewIndexDataset requires contiguous data (views would alias the caller's storage unpredictably)")
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
	if err := mem.Alloc("index.starts", int64(s)*8); err != nil {
		return nil, fmt.Errorf("batching: allocating index array: %w", err)
	}
	starts := make([]int, s)
	for i := range starts {
		starts[i] = i
	}

	trainS := int(math.Round(float64(s) * trainFrac))
	if trainS < 1 {
		trainS = 1
	}
	mean, std := weightedTrainStats(data, horizon, trainS)
	if std == 0 {
		std = 1
	}
	data.ApplyInPlace(func(v float64) float64 { return (v - mean) / std })

	return &IndexDataset{Data: data, Horizon: horizon, Mean: mean, Std: std, Starts: starts}, nil
}

// weightedTrainStats computes the mean and population std of the virtual
// materialized x_train (windows 0..trainS-1, each covering horizon rows)
// directly from the flat data. Row t of the data appears in
//
//	w(t) = max(0, min(t, trainS-1) - max(0, t-horizon+1) + 1)
//
// training windows, so the materialized sum is the w-weighted sum of row
// aggregates — an O(entries) computation instead of O(entries*horizon).
func weightedTrainStats(data *tensor.Tensor, horizon, trainS int) (mean, std float64) {
	rowElems := data.Dim(1) * data.Dim(2)
	totalCount := float64(trainS) * float64(horizon) * float64(rowElems)
	var sum, sumSq float64
	lastRow := trainS + horizon - 1 // rows beyond this have zero weight
	for t := 0; t < lastRow && t < data.Dim(0); t++ {
		lo := t - horizon + 1
		if lo < 0 {
			lo = 0
		}
		hi := t
		if hi > trainS-1 {
			hi = trainS - 1
		}
		w := float64(hi - lo + 1)
		if w <= 0 {
			continue
		}
		row := data.Index(0, t)
		it := row.Contiguous().Data()
		var rs, rss float64
		for _, v := range it {
			rs += v
			rss += v * v
		}
		sum += w * rs
		sumSq += w * rss
	}
	mean = sum / totalCount
	variance := sumSq/totalCount - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// Source is a locally assembled batch source: what a trainer, an evaluator
// or a Prefetcher reads batches from. IndexDataset (views collated on demand)
// and StandardResult (rows gathered from the materialized arrays) are the two
// implementations — the paper's two pipelines behind one seam.
type Source interface {
	// NumSnapshots returns the number of (x, y) pairs.
	NumSnapshots() int
	// AssembleBatch collates the given snapshots into x and y tensors of
	// shape [B, horizon, N, F]. The result may alias buf and is valid until
	// buf's next use.
	AssembleBatch(indices []int, buf *BatchBuffer) (x, y *tensor.Tensor)
	// Norm returns the training split's z-score statistics.
	Norm() (mean, std float64)
	// Dims returns the shape of the underlying signal and its windows.
	Dims() (entries, horizon, nodes, features int)
}

// NumSnapshots returns the number of (x, y) pairs.
func (d *IndexDataset) NumSnapshots() int { return len(d.Starts) }

// Norm implements Source.
func (d *IndexDataset) Norm() (mean, std float64) { return d.Mean, d.Std }

// Dims implements Source.
func (d *IndexDataset) Dims() (entries, horizon, nodes, features int) {
	return d.Data.Dim(0), d.Horizon, d.Data.Dim(1), d.Data.Dim(2)
}

// Snapshot reconstructs snapshot i as zero-copy views (Fig. 4 of the
// paper): x = data[start:start+h], y = data[start+h:start+2h].
func (d *IndexDataset) Snapshot(i int) (x, y *tensor.Tensor) {
	start := d.Starts[i]
	x = d.Data.Slice(0, start, start+d.Horizon)
	y = d.Data.Slice(0, start+d.Horizon, start+2*d.Horizon)
	return x, y
}

// RetainedBytes returns eq. (2): the data copy plus the index array.
func (d *IndexDataset) RetainedBytes() int64 {
	return d.Data.NumBytes() + int64(len(d.Starts))*8
}

// BatchBuffer is a reusable staging area for batched snapshots, so steady-
// state training allocates nothing per batch (the transient that remains is
// the batch itself, exactly as in the paper's workflow where views are
// collated into the training batch).
type BatchBuffer struct {
	x, y *tensor.Tensor
}

// AssembleBatch collates the given snapshot indices into batched tensors of
// shape [B, horizon, N, F], reusing buf's storage when it is large enough.
// A buffer previously filled by a dataset with a different horizon or graph
// shape is reallocated rather than silently reused (the per-snapshot layout
// would not line up and the batch would be corrupt).
func (d *IndexDataset) AssembleBatch(indices []int, buf *BatchBuffer) (x, y *tensor.Tensor) {
	b := len(indices)
	n, f := d.Data.Dim(1), d.Data.Dim(2)
	if buf.x == nil || buf.x.Dim(0) < b ||
		buf.x.Dim(1) != d.Horizon || buf.x.Dim(2) != n || buf.x.Dim(3) != f {
		buf.x = tensor.New(b, d.Horizon, n, f)
		buf.y = tensor.New(b, d.Horizon, n, f)
	}
	x = buf.x.Slice(0, 0, b)
	y = buf.y.Slice(0, 0, b)
	// Index-gather: each batch slot copies a disjoint [horizon, N, F] pair,
	// so slots fan out over the worker pool (grain sized to keep one chunk's
	// copied volume above the element-wise threshold).
	grain := parallel.GrainFor(2*d.Horizon*n*f, 16*1024)
	parallel.For(b, grain, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			sx, sy := d.Snapshot(indices[bi])
			x.Index(0, bi).CopyFrom(sx)
			y.Index(0, bi).CopyFrom(sy)
		}
	})
	return x, y
}
