package nn

import (
	"bytes"
	"math"
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/tensor"
)

// fuzzStateModule is the tiny module FuzzLoadTrainState loads into: two
// parameters of different ranks, so a shape mix-up cannot pass unseen.
func fuzzStateModule() *Linear { return NewLinear(tensor.NewRNG(3), "fuzz", 3, 2) }

// sameBits reports whether m's parameters are bitwise the snapshot's.
func sameBits(m Module, snap [][]float64) bool {
	for i, p := range m.Parameters() {
		for j, v := range p.Tensor().Data() {
			if math.Float64bits(v) != math.Float64bits(snap[i][j]) {
				return false
			}
		}
	}
	return true
}

// savedTrainState is a train state of a Linear after one Adam step (so the
// moments are not zero), plus the offset of its optimizer trailer.
func savedTrainState(t testing.TB) (state []byte, trailer int) {
	mod := fuzzStateModule()
	opt := NewAdam(mod, 0.01)
	loss := autograd.SumAll(mod.Forward(autograd.Constant(tensor.Randn(tensor.NewRNG(4), 4, 3))))
	if err := autograd.Backward(loss); err != nil {
		t.Fatal(err)
	}
	opt.Step()
	var full, params bytes.Buffer
	if err := SaveTrainState(&full, mod, opt, 5); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(&params, mod); err != nil {
		t.Fatal(err)
	}
	return full.Bytes(), params.Len()
}

// TestLoadIsAllOrNothing: a file cut short inside the parameter payload or
// inside the optimizer trailer fails to load and leaves the module's
// weights bitwise as they were — no parameter is written before the whole
// file decoded.
func TestLoadIsAllOrNothing(t *testing.T) {
	state, trailer := savedTrainState(t)
	for _, c := range []struct {
		name string
		cut  int
	}{{"payload", trailer - 3}, {"trailer", len(state) - 3}} {
		dst := NewLinear(tensor.NewRNG(9), "fuzz", 3, 2)
		before := SnapshotParams(dst)
		if _, err := LoadTrainState(bytes.NewReader(state[:c.cut]), dst); err == nil {
			t.Fatalf("%s truncation: LoadTrainState succeeded", c.name)
		}
		if !sameBits(dst, before) {
			t.Fatalf("%s truncation: LoadTrainState failed but replaced weights", c.name)
		}
		if c.cut < trailer {
			if err := LoadCheckpoint(bytes.NewReader(state[:c.cut]), dst); err == nil || !sameBits(dst, before) {
				t.Fatalf("%s truncation: LoadCheckpoint returned %v and changed the weights: %v", c.name, err, !sameBits(dst, before))
			}
		}
	}
}

// FuzzLoadTrainState holds the PGTS train-state loader to its contract on
// arbitrary bytes: it never panics, an error leaves the module's weights
// bitwise unchanged, and whenever it returns a state, every moment vector
// has its parameter's element count, so Adam accepts it. The
// seeds are a real train state (after one Adam step, so the moments are not
// zero), a params-only checkpoint, and truncated and bit-flipped copies
// that land in each section of the format.
func FuzzLoadTrainState(f *testing.F) {
	state, trailer := savedTrainState(f) // trailer: the PGTS magic's offset
	f.Add(state)
	f.Add(state[:trailer]) // a params-only checkpoint
	for _, n := range []int{0, 3, 8, 20, trailer - 1, trailer + 2, trailer + 14, len(state) - 1} {
		f.Add(state[:n])
	}
	for _, at := range []int{0, 4, 8, 12, 30, trailer, trailer + 4, trailer + 12, trailer + 16} {
		flipped := append([]byte(nil), state...)
		flipped[at] ^= 0x41
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		mod := fuzzStateModule()
		before := SnapshotParams(mod)
		st, err := LoadTrainState(bytes.NewReader(data), mod)
		if err != nil && !sameBits(mod, before) {
			t.Fatalf("load failed (%v) but replaced weights", err)
		}
		if err != nil || st == nil {
			return
		}
		ps := mod.Parameters()
		if len(st.M) != len(ps) || len(st.V) != len(ps) {
			t.Fatalf("state has %d/%d moment vectors for %d parameters", len(st.M), len(st.V), len(ps))
		}
		for i, p := range ps {
			if n := p.Tensor().NumElements(); len(st.M[i]) != n || len(st.V[i]) != n {
				t.Fatalf("%s: moments of %d/%d elements, parameter has %d", p.Name, len(st.M[i]), len(st.V[i]), n)
			}
		}
		if err := NewAdam(mod, 0.01).RestoreMoments(st.M, st.V, st.Step); err != nil {
			t.Fatalf("Adam rejects a loaded state: %v", err)
		}
	})
}
