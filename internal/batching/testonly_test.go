package batching

import (
	"fmt"

	"pgti/internal/tensor"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// OwnerOf returns the rank owning data row `row`.
func (s *PartitionStore) OwnerOf(row int) int {
	if row < 0 || row >= s.ds.Data.Dim(0) {
		panic(fmt.Sprintf("batching: row %d out of range [0,%d)", row, s.ds.Data.Dim(0)))
	}
	// bounds is sorted and small (<= workers+1 entries).
	for w := 0; w < s.workers; w++ {
		if row < s.bounds[w+1] {
			return w
		}
	}
	return s.workers - 1
}

// LocalBytes returns the bytes of rank's shard (its share of eq. 2).
func (s *PartitionStore) LocalBytes(rank int) int64 {
	lo, hi := s.LocalRows(rank)
	rowBytes := int64(s.ds.Data.Dim(1)) * int64(s.ds.Data.Dim(2)) * 8
	return int64(hi-lo) * rowBytes
}

// MaterializedFetchBytes returns what the same batch would cost under
// standard DDP: every snapshot ships its full 2*horizon-row window,
// overlaps and all (the Fig. 9 baseline volume).
func (s *PartitionStore) MaterializedFetchBytes(indices []int) int64 {
	rowBytes := int64(s.ds.Data.Dim(1)) * int64(s.ds.Data.Dim(2)) * 8
	return int64(len(indices)) * int64(2*s.ds.Horizon) * rowBytes
}

// Snapshot returns the i-th materialized (x, y) pair as views into the
// stacked arrays.
func (r *StandardResult) Snapshot(i int) (x, y *tensor.Tensor) {
	return r.X.Index(0, i), r.Y.Index(0, i)
}
