package nn

import (
	"bytes"
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/tensor"
)

// fuzzStateModule is the tiny module FuzzLoadTrainState loads into: two
// parameters of different ranks, so a shape mix-up cannot pass unseen.
func fuzzStateModule() *Linear { return NewLinear(tensor.NewRNG(3), "fuzz", 3, 2) }

// FuzzLoadTrainState holds the PGTS train-state loader to its contract on
// arbitrary bytes: it never panics, and whenever it returns a state, every
// moment vector has its parameter's element count, so Adam accepts it. The
// seeds are a real train state (after one Adam step, so the moments are not
// zero), a params-only checkpoint, and truncated and bit-flipped copies
// that land in each section of the format.
func FuzzLoadTrainState(f *testing.F) {
	mod := fuzzStateModule()
	opt := NewAdam(mod, 0.01)
	loss := autograd.SumAll(mod.Forward(autograd.Constant(tensor.Randn(tensor.NewRNG(4), 4, 3))))
	if err := autograd.Backward(loss); err != nil {
		f.Fatal(err)
	}
	opt.Step()
	var full, params bytes.Buffer
	if err := SaveTrainState(&full, mod, opt, 5); err != nil {
		f.Fatal(err)
	}
	if err := SaveCheckpoint(&params, mod); err != nil {
		f.Fatal(err)
	}
	state := full.Bytes()
	f.Add(state)
	f.Add(params.Bytes())
	trailer := params.Len() // the PGTS magic's offset
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
		st, err := LoadTrainState(bytes.NewReader(data), mod)
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
