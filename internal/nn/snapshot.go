package nn

import "fmt"

// Parameter snapshots: a deep copy of a module's weights in declaration
// order, decoupled from any file format. This is the cheap clone primitive
// behind checkpoint injection on distributed grids (every rank replays one
// load), the rebuilt full-graph model after spatially sharded training, the
// warm start of a rolling retrain and the all-or-nothing checkpoint load —
// all of which need "copy these exact bits into an identical architecture"
// without paying for serialization.

// SnapshotParams deep-copies a module's parameter values in declaration
// order. The snapshot is independent of the module: later training steps do
// not mutate it.
func SnapshotParams(m Module) [][]float64 {
	params := m.Parameters()
	snap := make([][]float64, len(params))
	for i, p := range params {
		snap[i] = append([]float64(nil), p.Tensor().Contiguous().Data()...)
	}
	return snap
}

// RestoreParams copies a snapshot produced by SnapshotParams into a module
// of identical architecture (same parameter count and shapes, checked
// element-wise). The copy is plain assignment, so the restored weights are
// bitwise identical to the snapshotted ones.
func RestoreParams(m Module, snap [][]float64) error {
	params := m.Parameters()
	if len(params) != len(snap) {
		return fmt.Errorf("nn: snapshot has %d parameters, model has %d", len(snap), len(params))
	}
	for i, p := range params {
		dst := p.Tensor().Data()
		if len(dst) != len(snap[i]) {
			return fmt.Errorf("nn: parameter %q has %d elements, snapshot %d", p.Name, len(dst), len(snap[i]))
		}
		copy(dst, snap[i])
	}
	return nil
}
