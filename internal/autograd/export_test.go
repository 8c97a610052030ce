package autograd

import "pgti/internal/tensor"

// GraphValues returns the forward value of every variable reachable from
// root, constants included, for tests outside the package that must show a
// gradient aliases none of them.
func GraphValues(root *Variable) []*tensor.Tensor {
	var vals []*tensor.Tensor
	seen := map[*Variable]bool{}
	var visit func(v *Variable)
	visit = func(v *Variable) {
		if seen[v] {
			return
		}
		seen[v] = true
		vals = append(vals, v.Value)
		if v.op != nil {
			for _, in := range v.op.inputs {
				visit(in)
			}
		}
	}
	visit(root)
	return vals
}
