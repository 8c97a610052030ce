package tensor

import "math"

// Arena is a bump allocator for tensors that all die at once: one training
// step's activations and gradients. It hands out elements and headers from
// chunks it keeps, and every cycle after a Reset reuses them in the same
// order, so a warm cycle of the same shapes allocates nothing and the arena
// holds about one cycle's bytes. After a Reset no tensor handed out before
// it, nor a view of one, may be read. Storage from New is uninitialised
// (NaN under the arenapoison build tag); ZerosLike clears it. The nil *Arena
// is the heap: its methods return ordinary zero-filled tensors. The zero
// Arena is ready to use; it is not safe for concurrent use, and no chunk
// outlives it in a pool or cache.
type Arena struct {
	data  chunks[float64]
	heads chunks[Tensor]
}

// chunks is a list of slabs that every cycle fills in order from the first.
type chunks[T any] struct {
	slabs  [][]T
	c, off int // the slab being filled and its next free element
}

// take hands out n elements: the first slab from the current one on with
// room for them, or a new slab, first elements long and doubling with each
// slab up to most elements (or n, if larger).
func (s *chunks[T]) take(n, first, most int) []T {
	for s.c < len(s.slabs) && s.off+n > len(s.slabs[s.c]) {
		s.c, s.off = s.c+1, 0
	}
	if s.c == len(s.slabs) {
		s.slabs = append(s.slabs, make([]T, max(n, min(first<<min(s.c, 16), most))))
	}
	out := s.slabs[s.c][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

// Reset makes every tensor handed out since the last Reset dead and its
// storage reusable. Resetting the nil arena does nothing.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.data.c, a.data.off, a.heads.c, a.heads.off = 0, 0, 0, 0
	if poison {
		for _, s := range a.data.slabs {
			fillNaN(s)
		}
	}
}

// New returns an uninitialised tensor of the given shape, for a kernel that
// writes every element.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	return shaped(a.header(a.floats(checkShape(shape)), 0, len(shape)), shape)
}

// Like is New with t's shape.
func (a *Arena) Like(t *Tensor) *Tensor { return a.New(t.shape...) }

// ZerosLike returns a zero-filled tensor of t's shape, for a kernel that
// accumulates.
func (a *Arena) ZerosLike(t *Tensor) *Tensor {
	z := a.Like(t)
	if a != nil {
		clear(z.data)
	}
	return z
}

// Contiguous returns t when it is contiguous and a contiguous copy of it
// from the arena otherwise.
func (a *Arena) Contiguous(t *Tensor) *Tensor {
	if a == nil || t.IsContiguous() {
		return t.Contiguous()
	}
	out := a.Like(t)
	copyStrided(out, t)
	return out
}

// Broadcast returns an uninitialised tensor of x and y's broadcast shape,
// the destination of BinaryInto(·, x, y, op).
func (a *Arena) Broadcast(x, y *Tensor) *Tensor {
	if x.SameShape(y) {
		return a.Like(x)
	}
	shape, err := BroadcastShapes(x.shape, y.shape)
	if err != nil {
		panic(err.Error())
	}
	return a.New(shape...)
}

// floats hands out n elements, cache-line aligned, from slabs of 512 KiB
// growing to 4 MiB.
func (a *Arena) floats(n int) []float64 {
	s := a.data.take((n+7)&^7, 1<<16, 1<<19)[:n:n]
	if poison {
		fillNaN(s)
	}
	return s
}

// header hands out a header of the given rank over data.
func (a *Arena) header(data []float64, offset, rank int) *Tensor {
	t := &a.heads.take(1, 256, 4096)[0]
	t.init(data, offset, rank)
	t.arena = a
	return t
}

// poison is set by the arenapoison build tag: Reset and every
// uninitialised hand-out then fill NaN, so a kernel that reads storage it
// did not write, or a read of a tensor after its arena's Reset, turns a
// pinned result into NaN.
var poison = false

func fillNaN(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
}
