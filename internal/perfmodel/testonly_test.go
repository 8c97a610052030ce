package perfmodel

import (
	"time"

	"pgti/internal/tensor"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// DCRNNDims returns the original DCRNN's dimensions (2 encoder + 2 decoder
// layers).
func DCRNNDims(n, nnz int) DCGRUDims {
	return DCGRUDims{Nodes: n, NNZ: nnz, In: 2, Hidden: 64, K: 2, Supports: 2, Steps: 12, Layers: 2, EncoderDecoder: true}
}

// New returns a cost model with the paper's jitter band.
func New(seed uint64) *CostModel {
	return &CostModel{rng: tensor.NewRNG(seed), Jitter: 1}
}

// BatchAssembleTime returns the host-side collation cost of index-batching
// one optimizer batch: the gather of batch window views into the contiguous
// [B, h, N, F] x and y tensors reads each source element and writes its
// destination once through host memory (factor 2 on the batch volume). This
// is the per-step cost the training loop's prefetch pipeline hides under the
// previous step's forward/backward.
func (c *CostModel) BatchAssembleTime(batch, horizon, nodes, features int) time.Duration {
	bytes := BatchBytes(batch, horizon, nodes, features)
	return seconds(2 * float64(bytes) / HostMemBandwidth)
}
