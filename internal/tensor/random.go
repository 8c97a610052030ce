package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 core) used everywhere randomness is needed: weight init,
// synthetic data, shuffling. Determinism across runs is a stated invariant
// of the reproduction (same seed => identical training trajectories).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Shuffle performs a Fisher–Yates shuffle of indices [0, n) in place.
func (r *RNG) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	r.Shuffle(idx)
	return idx
}

// Rand returns a tensor of the given shape with uniform [0,1) entries.
func Rand(r *RNG, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = r.Float64()
	}
	return t
}

// Randn returns a tensor of the given shape with standard normal entries.
func Randn(r *RNG, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = r.NormFloat64()
	}
	return t
}

// GlorotUniform returns a [fanIn, fanOut]-shaped tensor initialized with the
// Glorot/Xavier uniform scheme used by PyTorch Geometric layers.
func GlorotUniform(r *RNG, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = (2*r.Float64() - 1) * limit
	}
	return t
}
