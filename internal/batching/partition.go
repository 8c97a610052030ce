package batching

import (
	"fmt"

	"pgti/internal/tensor"
)

// PartitionStore is the data layout of generalized-distributed-index-
// batching (§5.4): the single standardized copy of the data is split
// row-wise across workers, so no worker ever holds the full dataset — the
// larger-than-memory regime. Fetching a batch retrieves the contiguous row
// range covering its snapshots; rows owned by other workers count as remote
// traffic. Because index-batched batches need each row only once (instead
// of the 2*horizon materialized copies), and batch-level shuffling keeps
// batches contiguous within a partition, almost all fetched rows are local
// — the memory-locality argument of the paper, made measurable.
type PartitionStore struct {
	ds      *IndexDataset
	workers int
	bounds  []int // worker w owns data rows [bounds[w], bounds[w+1])
}

// NewPartitionStore splits ds's rows evenly across workers.
func NewPartitionStore(ds *IndexDataset, workers int) (*PartitionStore, error) {
	if workers < 1 {
		return nil, fmt.Errorf("batching: PartitionStore needs >= 1 worker, got %d", workers)
	}
	rows := ds.Data.Dim(0)
	if rows < workers {
		return nil, fmt.Errorf("batching: %d rows cannot be partitioned across %d workers", rows, workers)
	}
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * rows / workers
	}
	return &PartitionStore{ds: ds, workers: workers, bounds: bounds}, nil
}

// LocalRows returns the row range [lo, hi) owned by rank.
func (s *PartitionStore) LocalRows(rank int) (lo, hi int) {
	if rank < 0 || rank >= s.workers {
		panic(fmt.Sprintf("batching: rank %d out of range [0,%d)", rank, s.workers))
	}
	return s.bounds[rank], s.bounds[rank+1]
}

// rowSpan returns the inclusive-exclusive data-row range a set of snapshot
// indices touches (each snapshot i covers rows [start_i, start_i + 2h)).
func (s *PartitionStore) rowSpan(indices []int) (lo, hi int) {
	lo, hi = s.ds.Data.Dim(0), 0
	for _, idx := range indices {
		start := s.ds.Starts[idx]
		if start < lo {
			lo = start
		}
		if end := start + 2*s.ds.Horizon; end > hi {
			hi = end
		}
	}
	return lo, hi
}

// FetchBatch assembles the batch exactly like IndexDataset.AssembleBatch
// and additionally accounts the row traffic: bytes served from rank's own
// shard vs fetched from remote shards. Each distinct data row in the
// covering span is counted once — the index-batching volume advantage over
// shipping materialized windows.
func (s *PartitionStore) FetchBatch(rank int, indices []int, buf *BatchBuffer) (x, y *tensor.Tensor, localBytes, remoteBytes int64) {
	rowBytes := int64(s.ds.Data.Dim(1)) * int64(s.ds.Data.Dim(2)) * 8
	lo, hi := s.rowSpan(indices)
	myLo, myHi := s.LocalRows(rank)
	for r := lo; r < hi; r++ {
		if r >= myLo && r < myHi {
			localBytes += rowBytes
		} else {
			remoteBytes += rowBytes
		}
	}
	x, y = s.ds.AssembleBatch(indices, buf)
	return x, y, localBytes, remoteBytes
}
