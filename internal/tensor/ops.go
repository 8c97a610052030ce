package tensor

import (
	"fmt"
	"math"

	"pgti/internal/parallel"
)

// elemGrain is the minimum number of elements one parallel chunk of an
// element-wise kernel processes; smaller regions run serially in the caller
// (the per-element closure call still dominates goroutine handoff below it).
const elemGrain = 2048

// BroadcastShapes returns the NumPy-style broadcast shape of a and b, or an
// error if they are incompatible.
func BroadcastShapes(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast shapes %v and %v", a, b)
		}
	}
	return out, nil
}

// broadcastTo returns a zero-copy view of t expanded to shape using stride-0
// broadcasting. t's shape must be broadcast-compatible with shape.
func (t *Tensor) broadcastTo(shape []int) *Tensor {
	if len(shape) < len(t.shape) {
		panic(fmt.Sprintf("tensor: cannot broadcast %v to smaller rank %v", t.shape, cloneInts(shape)))
	}
	v := newHeader(t.data, t.offset, len(shape))
	copy(v.shape, shape)
	off := len(shape) - len(t.shape)
	for i := range shape {
		if i < off {
			continue // stride 0
		}
		d := t.shape[i-off]
		switch {
		case d == shape[i]:
			v.strides[i] = t.strides[i-off]
		case d == 1:
			// stride 0
		default:
			panic(fmt.Sprintf("tensor: cannot broadcast %v to %v", t.shape, cloneInts(shape)))
		}
	}
	return v
}

// Binary applies op element-wise with broadcasting and returns a new tensor:
// one pass and one output for an expression Add, Sub and Mul would build in
// several.
func Binary(a, b *Tensor, op func(x, y float64) float64) *Tensor {
	if a.SameShape(b) && a.IsContiguous() && b.IsContiguous() {
		// Nothing to broadcast: every model's gate arithmetic and most
		// backward products.
		out := New(a.shape...)
		ad, bd, od := a.Data(), b.Data(), out.data
		parallel.For(len(od), elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = op(ad[i], bd[i])
			}
		})
		return out
	}
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		panic(err.Error())
	}
	out := New(shape...)
	av := a.broadcastTo(shape)
	bv := b.broadcastTo(shape)
	// Rank >= 1 here: two rank-0 operands took the path above.
	w := stridedBinary{od: out.data, ad: av.data, bd: bv.data, shape: shape, astr: av.strides, bstr: bv.strides, op: op}
	w.axis(0, 0, av.offset, bv.offset)
	return out
}

// stridedBinary is the broadcasting path of Binary: it fills the dense od in
// row-major order from two same-shaped strided (stride 0 where broadcast)
// operands — a bias row under a matrix, in the models. The last axis is a
// strided loop, the outer axes recurse.
type stridedBinary struct {
	od, ad, bd        []float64
	shape, astr, bstr []int
	op                func(x, y float64) float64
}

// axis fills od from position o on with the elements of axes d and inward
// at operand positions ap and bp, and returns the position after them.
func (w *stridedBinary) axis(d, o, ap, bp int) int {
	n, as, bs := w.shape[d], w.astr[d], w.bstr[d]
	if d == len(w.shape)-1 {
		for i := 0; i < n; i++ {
			w.od[o+i] = w.op(w.ad[ap], w.bd[bp])
			ap += as
			bp += bs
		}
		return o + n
	}
	for i := 0; i < n; i++ {
		o = w.axis(d+1, o, ap, bp)
		ap += as
		bp += bs
	}
	return o
}

// Add returns a + b with broadcasting.
func Add(a, b *Tensor) *Tensor { return Binary(a, b, func(x, y float64) float64 { return x + y }) }

// Sub returns a - b with broadcasting.
func Sub(a, b *Tensor) *Tensor { return Binary(a, b, func(x, y float64) float64 { return x - y }) }

// Mul returns the element-wise product a * b with broadcasting.
func Mul(a, b *Tensor) *Tensor { return Binary(a, b, func(x, y float64) float64 { return x * y }) }

// AddScalar returns t + s.
func (t *Tensor) AddScalar(s float64) *Tensor {
	return t.Apply(func(x float64) float64 { return x + s })
}

// MulScalar returns t * s.
func (t *Tensor) MulScalar(s float64) *Tensor {
	return t.Apply(func(x float64) float64 { return x * s })
}

// Neg returns -t.
func (t *Tensor) Neg() *Tensor { return t.MulScalar(-1) }

// Abs returns |t| element-wise.
func (t *Tensor) Abs() *Tensor { return t.Apply(math.Abs) }

// Sigmoid returns 1/(1+exp(-t)) element-wise.
func (t *Tensor) Sigmoid() *Tensor {
	return t.Apply(func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
}

// Tanh returns tanh(t) element-wise.
func (t *Tensor) Tanh() *Tensor { return t.Apply(math.Tanh) }

// Relu returns max(t, 0) element-wise.
func (t *Tensor) Relu() *Tensor {
	return t.Apply(func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// Apply returns a new tensor with f applied element-wise.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	if t.IsContiguous() {
		td, od := t.Data(), out.Data()
		parallel.For(len(od), elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = f(td[i])
			}
		})
		return out
	}
	it := newIterator(t)
	od := out.data
	for i := 0; it.next(); i++ {
		od[i] = f(t.data[it.pos])
	}
	return out
}

// ApplyInPlace applies f element-wise, mutating t (including through views).
func (t *Tensor) ApplyInPlace(f func(float64) float64) {
	if t.IsContiguous() {
		d := t.Data()
		parallel.For(len(d), elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				d[i] = f(d[i])
			}
		})
		return
	}
	it := newIterator(t)
	for it.next() {
		t.data[it.pos] = f(t.data[it.pos])
	}
}

// AddInPlace accumulates o into t element-wise (o broadcast to t's shape).
func (t *Tensor) AddInPlace(o *Tensor) {
	t.updateInPlace(o, func(td, od []float64) {
		for i := range td {
			td[i] += od[i]
		}
	})
}

// updateInPlace is the shared body of the broadcasting in-place updates.
// kernel updates a run of t's elements from the equally long run of o's; the
// strided fallback feeds it one element at a time. o is only broadcast when
// its shape differs from t's.
func (t *Tensor) updateInPlace(o *Tensor, kernel func(td, od []float64)) {
	if !t.SameShape(o) {
		o = o.broadcastTo(t.shape)
	}
	if t.IsContiguous() && o.IsContiguous() {
		td, od := t.Data(), o.Data()
		parallel.For(len(td), elemGrain, func(lo, hi int) { kernel(td[lo:hi], od[lo:hi]) })
		return
	}
	ti := newIterator(t)
	oi := newIterator(o)
	for ti.next() && oi.next() {
		kernel(t.data[ti.pos:ti.pos+1], o.data[oi.pos:oi.pos+1])
	}
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float64) {
	t.ApplyInPlace(func(x float64) float64 { return x * s })
}
