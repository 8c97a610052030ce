// Package autograd implements reverse-mode automatic differentiation over
// internal/tensor. Each differentiable operation records its inputs and a
// backward closure; Backward walks the resulting DAG in reverse topological
// order, accumulating gradients. The engine is deliberately minimal — just
// the ops the paper's models (DCRNN, PGT-DCRNN, A3T-GCN, ST-LLM-lite) need —
// but gradient-checked against central finite differences for every op.
//
// # Gradient ownership
//
// The backward pass does not copy a gradient it can take over. When an op's
// backward closure returns a gradient for an input that has none yet, the
// engine adopts the tensor as that input's Grad — no Clone — provided the
// tensor spans its whole backing array (tensor.SpansStorage), does not share
// storage with a gradient already adopted from the same call (Add(a, b)
// hands the upstream gradient to both inputs), and does not share storage
// with the root's gradient, which outlives the pass. Anything else — a
// slice of a larger buffer, a strided view, a second or later contribution —
// is cloned or added in place as before. A Grad is therefore always the
// sole reference to its storage, and optimizers, clipping and the gradient
// hooks of other goroutines may mutate or read it freely.
//
// What makes this safe is a contract on every backward closure:
//
//   - It must not retain a gradient it returns, nor return the same storage
//     from two calls.
//   - It must not return a captured forward value (an input's or the
//     output's Value, or a view of one): the engine would hand the model's
//     activations to an optimizer as scratch.
//   - It may return its grad argument or a view of it — that storage belongs
//     to the op's output, which is done with it once the closure returns —
//     and may return one tensor for several inputs.
package autograd

import (
	"fmt"
	"time"

	"pgti/internal/tensor"
)

// Variable wraps a tensor value in the autograd graph.
type Variable struct {
	Value        *tensor.Tensor
	Grad         *tensor.Tensor // nil until Backward reaches this variable
	requiresGrad bool
	op           *opRecord
}

// opRecord captures how a variable was produced.
type opRecord struct {
	name     string
	inputs   []*Variable
	backward func(grad *tensor.Tensor) []*tensor.Tensor
}

// NewVariable returns a leaf variable that participates in gradients.
func NewVariable(t *tensor.Tensor) *Variable {
	return &Variable{Value: t, requiresGrad: true}
}

// Constant returns a leaf variable excluded from gradient computation.
func Constant(t *tensor.Tensor) *Variable {
	return &Variable{Value: t}
}

// RequiresGrad reports whether gradients flow to this variable.
func (v *Variable) RequiresGrad() bool { return v.requiresGrad }

// IsLeaf reports whether the variable was created directly (not by an op).
func (v *Variable) IsLeaf() bool { return v.op == nil }

// Shape returns the shape of the underlying value.
func (v *Variable) Shape() []int { return v.Value.Shape() }

// ZeroGrad clears the accumulated gradient.
func (v *Variable) ZeroGrad() { v.Grad = nil }

// Detach returns a constant view of the variable's value, cutting the graph.
// RNN training uses this to truncate backpropagation between batches.
func (v *Variable) Detach() *Variable { return Constant(v.Value) }

// anyRequiresGrad reports whether gradient tracking is needed for an op.
func anyRequiresGrad(inputs []*Variable) bool {
	for _, in := range inputs {
		if in.requiresGrad {
			return true
		}
	}
	return false
}

// newOp builds the result variable for an op, recording the tape entry only
// when some input needs gradients.
func newOp(name string, value *tensor.Tensor, inputs []*Variable, backward func(grad *tensor.Tensor) []*tensor.Tensor) *Variable {
	if !anyRequiresGrad(inputs) {
		return &Variable{Value: value}
	}
	// The variable and its tape entry live and die together: one allocation.
	node := &struct {
		v  Variable
		op opRecord
	}{
		v:  Variable{Value: value, requiresGrad: true},
		op: opRecord{name: name, inputs: inputs, backward: backward},
	}
	node.v.op = &node.op
	return &node.v
}

// GradHook observes leaf gradients becoming final during a backward pass:
// it is invoked exactly once per reachable gradient-requiring leaf, at the
// moment no remaining op can still contribute to that leaf's gradient.
// Distributed training uses this to launch per-bucket gradient AllReduce
// while the rest of the backward pass is still running.
type GradHook func(leaf *Variable)

// Backward computes gradients of v with respect to every reachable variable
// with RequiresGrad. v must be a scalar (one element); its seed gradient is 1.
func Backward(v *Variable) error {
	if v.Value.NumElements() != 1 {
		return fmt.Errorf("autograd: Backward requires a scalar output, got shape %v", v.Value.Shape())
	}
	return backward(v, tensor.FullLike(1, v.Value), nil)
}

// BackwardWithGrad runs backpropagation from v with an explicit seed
// gradient of the same shape as v's value.
func BackwardWithGrad(v *Variable, seed *tensor.Tensor) error {
	return BackwardWithHook(v, seed, nil)
}

// BackwardHooked is Backward (scalar output, unit seed) with a
// gradient-ready hook.
func BackwardHooked(v *Variable, hook GradHook) error {
	if v.Value.NumElements() != 1 {
		return fmt.Errorf("autograd: Backward requires a scalar output, got shape %v", v.Value.Shape())
	}
	return backward(v, tensor.FullLike(1, v.Value), hook)
}

// TimedGradHook observes a leaf gradient becoming final during a backward
// pass together with the wall-clock time elapsed since the pass began. The
// per-parameter timings let distributed training place each gradient
// bucket's AllReduce launch on the measured backward timeline instead of a
// modeled split.
type TimedGradHook func(leaf *Variable, elapsed time.Duration)

// BackwardTimed is Backward (scalar output, unit seed) with a timed
// gradient-ready hook; it returns the total wall-clock duration of the
// backward pass. Elapsed values are non-decreasing in hook-firing order and
// never exceed the returned total.
func BackwardTimed(v *Variable, hook TimedGradHook) (time.Duration, error) {
	if v.Value.NumElements() != 1 {
		return 0, fmt.Errorf("autograd: Backward requires a scalar output, got shape %v", v.Value.Shape())
	}
	start := time.Now()
	var wrapped GradHook
	if hook != nil {
		wrapped = func(leaf *Variable) { hook(leaf, time.Since(start)) }
	}
	err := backward(v, tensor.FullLike(1, v.Value), wrapped)
	return time.Since(start), err
}

// BackwardWithHook is BackwardWithGrad with a gradient-ready hook: as the
// reverse sweep retires the last consumer of each gradient-requiring leaf,
// hook fires with that leaf (its Grad is final, though possibly nil when no
// gradient flowed to it). A nil hook degenerates to BackwardWithGrad. The
// seed stays the caller's: the root accumulates a copy.
func BackwardWithHook(v *Variable, seed *tensor.Tensor, hook GradHook) error {
	if !v.Value.SameShape(seed) {
		return fmt.Errorf("autograd: seed gradient shape %v does not match output shape %v", seed.Shape(), v.Value.Shape())
	}
	return backward(v, seed.Clone(), hook)
}

// backward is the reverse sweep; seed has v's shape and becomes v's.
func backward(v *Variable, seed *tensor.Tensor, hook GradHook) error {
	if !v.requiresGrad {
		return nil
	}
	order, err := topoSort(v)
	if err != nil {
		return err
	}
	// pending[leaf] counts the reachable ops still holding leaf as an input;
	// when it hits zero the leaf's gradient can no longer change.
	var pending map[*Variable]int
	if hook != nil {
		pending = make(map[*Variable]int)
		for _, node := range order {
			if node.op == nil {
				continue
			}
			for _, in := range node.op.inputs {
				if in.requiresGrad && in.op == nil {
					pending[in]++
				}
			}
		}
		if v.op == nil {
			// Degenerate graph: the root itself is the only leaf.
			defer hook(v)
		}
	}
	if v.Grad == nil {
		v.Grad = seed
	} else {
		v.Grad.AddInPlace(seed)
	}
	// adopted lists the gradients taken over from the current op, so that a
	// tensor returned for two inputs is owned by one of them only.
	var adopted []*tensor.Tensor
	// Reverse topological order: from output back to leaves.
	for i := len(order) - 1; i >= 0; i-- {
		node := order[i]
		if node.op == nil {
			continue
		}
		if node.Grad != nil {
			grads := node.op.backward(node.Grad)
			if len(grads) != len(node.op.inputs) {
				return fmt.Errorf("autograd: op %q returned %d gradients for %d inputs", node.op.name, len(grads), len(node.op.inputs))
			}
			adopted = adopted[:0]
			for j, in := range node.op.inputs {
				g := grads[j]
				if !in.requiresGrad || g == nil {
					continue
				}
				if !in.Value.SameShape(g) {
					return fmt.Errorf("autograd: op %q produced gradient shape %v for input shape %v", node.op.name, g.Shape(), in.Value.Shape())
				}
				switch {
				case in.Grad != nil:
					in.Grad.AddInPlace(g)
				case g.SpansStorage() && !g.SharesStorage(v.Grad) && !sharesAny(g, adopted):
					in.Grad = g
					adopted = append(adopted, g)
				default:
					in.Grad = g.Clone()
				}
			}
		}
		// Retire this op's claims on its leaves even when no gradient flowed
		// through it — readiness is structural, not value-dependent.
		if hook != nil {
			for _, in := range node.op.inputs {
				if !in.requiresGrad || in.op != nil {
					continue
				}
				pending[in]--
				if pending[in] == 0 {
					hook(in)
				}
			}
		}
		// Free the intermediate gradient: only leaves keep gradients after
		// a full backward pass, matching PyTorch semantics.
		if node != v {
			node.Grad = nil
		}
	}
	return nil
}

func sharesAny(g *tensor.Tensor, ts []*tensor.Tensor) bool {
	for _, t := range ts {
		if g.SharesStorage(t) {
			return true
		}
	}
	return false
}

// topoSort returns the variables reachable from root in topological order
// (inputs before outputs).
func topoSort(root *Variable) ([]*Variable, error) {
	var order []*Variable
	state := map[*Variable]int{} // 0 unseen, 1 visiting, 2 done
	// Iterative DFS to avoid stack overflows on long RNN chains.
	type frame struct {
		v    *Variable
		next int
	}
	stack := []frame{{v: root}}
	state[root] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.v.op == nil || f.next >= len(f.v.op.inputs) {
			state[f.v] = 2
			order = append(order, f.v)
			stack = stack[:len(stack)-1]
			continue
		}
		child := f.v.op.inputs[f.next]
		f.next++
		switch state[child] {
		case 0:
			if child.requiresGrad {
				state[child] = 1
				stack = append(stack, frame{v: child})
			}
		case 1:
			// A cycle is impossible for tapes built by this package, but a
			// hand-constructed graph could contain one.
			return nil, fmt.Errorf("autograd: cycle detected through op %q", f.v.op.name)
		}
	}
	return order, nil
}

// reduceGradTo sums grad over broadcast dimensions so that it matches like's
// shape — the adjoint of broadcasting. A grad that already matches is
// returned as it is.
func reduceGradTo(grad, like *tensor.Tensor) *tensor.Tensor {
	g := grad
	// Remove leading broadcast dimensions.
	for g.Rank() > like.Rank() {
		g = g.Sum(0)
	}
	// Sum over dimensions where the target size is 1, in ascending order.
	// Each Sum drops its axis, so like's axis sits `summed` places lower in
	// g; one reshape of the (dense) result puts the size-1 axes back.
	summed := 0
	for axis := 0; axis < like.Rank(); axis++ {
		if like.Dim(axis) == 1 && g.Dim(axis-summed) != 1 {
			g = g.Sum(axis - summed)
			summed++
		}
	}
	if summed > 0 {
		return g.ReshapeLike(like)
	}
	return g.Contiguous()
}
