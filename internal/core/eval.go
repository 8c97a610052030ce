package core

import (
	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/metrics"
	"pgti/internal/nn"
)

// emitForecasts runs inference on the first n test snapshots, un-z-scoring
// predictions and ground truth back to original units.
func emitForecasts(model nn.SeqModel, src batching.Source, test []int, n, nodes int) []Forecast {
	if n > len(test) {
		n = len(test)
	}
	out := make([]Forecast, 0, n)
	mean, std := src.Norm()
	var buf batching.BatchBuffer
	for _, si := range test[:n] {
		x, y := src.AssembleBatch([]int{si}, &buf)
		pred := model.Forward(autograd.NoGrad(x))
		target := y.Slice(3, 0, 1).Contiguous()
		horizon := pred.Value.Dim(1)
		unz := func(v float64) float64 { return v*std + mean }
		f := Forecast{
			SnapshotIndex: si,
			Horizon:       horizon,
			Nodes:         nodes,
			Pred:          make([]float64, 0, horizon*nodes),
			Actual:        make([]float64, 0, horizon*nodes),
		}
		for t := 0; t < horizon; t++ {
			for nd := 0; nd < nodes; nd++ {
				f.Pred = append(f.Pred, unz(pred.Value.At(0, t, nd, 0)))
				f.Actual = append(f.Actual, unz(target.At(0, t, nd, 0)))
			}
		}
		out = append(out, f)
	}
	return out
}

// evaluateTestMSE computes the test-split MSE in standardized units
// (the convention of the A3T-GCN example the paper reuses for Table 6).
func evaluateTestMSE(model nn.SeqModel, src batching.Source, test []int, batchSize int) float64 {
	var acc metrics.Running
	var buf batching.BatchBuffer
	for _, batch := range batching.Batches(test, batchSize) {
		x, y := src.AssembleBatch(batch, &buf)
		target := y.Slice(3, 0, 1).Contiguous()
		pred := model.Forward(autograd.NoGrad(x))
		acc.Add(metrics.MSE(pred.Value, target), len(batch))
	}
	return acc.Mean()
}
