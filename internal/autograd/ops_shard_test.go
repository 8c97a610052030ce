package autograd

import (
	"testing"

	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// shardBlock wraps a compacted [own | halo] row block as the sparse.ShardCSR
// ShardSpMM takes, with its interior/frontier row split.
func shardBlock(local *sparse.CSR) *sparse.ShardCSR {
	interior, frontier := sparse.InteriorFrontier(local, local.RowsN)
	return &sparse.ShardCSR{GlobalN: local.RowsN, Local: local, Interior: interior, Frontier: frontier}
}

// fakeExchange is a deterministic in-process HaloExchange: it serves fixed
// halo rows and fixed peer contributions, and records its calls, so
// ShardSpMM can be checked bitwise and for call order without a cluster.
type fakeExchange struct {
	haloRows *tensor.Tensor // [halo, F] served by GatherFinish
	remote   *tensor.Tensor // [own, F] served by ScatterAddFinish
	inFlight int            // Start/Finish pairing check
	calls    []string
}

func (e *fakeExchange) NumHalo() int { return e.haloRows.Dim(0) }
func (e *fakeExchange) GatherStart(local *tensor.Tensor) {
	e.calls = append(e.calls, "gatherStart")
	e.inFlight++
}
func (e *fakeExchange) GatherFinish() *tensor.Tensor {
	e.calls = append(e.calls, "gatherFinish")
	e.inFlight--
	return e.haloRows.Clone()
}
func (e *fakeExchange) ScatterAddStart(haloGrad *tensor.Tensor) {
	e.calls = append(e.calls, "scatterStart")
	e.inFlight++
}
func (e *fakeExchange) ScatterAddFinish() *tensor.Tensor {
	e.calls = append(e.calls, "scatterFinish")
	e.inFlight--
	return e.remote.Clone()
}

// TestShardSpMMSingleShardMatchesSpMM: with the whole graph on one shard
// (no halo, zero peer contributions), ShardSpMM must agree with SpMM in both
// forward values and gradients, and must still drive each exchange pair once
// per pass.
func TestShardSpMMSingleShardMatchesSpMM(t *testing.T) {
	n, f := 7, 3
	rng := tensor.NewRNG(2)
	var entries []sparse.Coord
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: (i + 1) % n, Val: rng.Float64()})
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
	}
	m, err := sparse.FromCOO(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	xv := tensor.Randn(rng, n, f)

	ref := NewVariable(xv.Clone())
	refOut := SpMM(m, ref)
	if err := Backward(SumAll(refOut)); err != nil {
		t.Fatal(err)
	}

	ex := &fakeExchange{haloRows: tensor.New(0, f), remote: tensor.New(n, f)}
	x := NewVariable(xv.Clone())
	out := ShardSpMM(shardBlock(m), ex, x)
	if err := Backward(SumAll(out)); err != nil {
		t.Fatal(err)
	}

	if !out.Value.AllClose(refOut.Value, 1e-12) {
		t.Fatal("forward mismatch vs SpMM")
	}
	if !x.Grad.AllClose(ref.Grad, 1e-12) {
		t.Fatal("gradient mismatch vs SpMM")
	}
	if len(ex.calls) != 4 {
		t.Fatalf("exchange hooks ran %v, want one gather and one scatter pair", ex.calls)
	}
}

// referenceShardSpMM is the gather-then-multiply composite ShardSpMM must
// reproduce bitwise: out = Local·[x; halo], and the input gradient is the own
// rows of Localᵀ·grad plus the peers' contributions.
func referenceShardSpMM(local *sparse.CSR, x, halo, grad, remote *tensor.Tensor) (out, xGrad *tensor.Tensor) {
	ext := x
	if halo.Dim(0) > 0 {
		ext = heap.Concat(0, x, halo)
	}
	gext := local.Transposed().SpMM(grad)
	return local.SpMM(ext), tensor.Binary(gext.Slice(0, 0, local.RowsN).Contiguous(), remote, add)
}

// TestShardSpMMOverlapBitwise: the interior-first split-phase schedule must
// reproduce the gather-then-multiply composite's forward values and input
// gradients bit-for-bit, for blocks with and without halo columns, and call
// the exchange as gatherStart, gatherFinish, scatterStart, scatterFinish.
func TestShardSpMMOverlapBitwise(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, halo := range []int{0, 5} {
		nOwn, f := 11, 4
		cols := nOwn + halo
		var entries []sparse.Coord
		for i := 0; i < nOwn; i++ {
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
			entries = append(entries, sparse.Coord{Row: i, Col: (i * 3) % cols, Val: rng.Float64()})
			if halo > 0 && i%3 == 0 {
				entries = append(entries, sparse.Coord{Row: i, Col: nOwn + i%halo, Val: rng.Float64()})
			}
		}
		local, err := sparse.FromCOO(nOwn, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		xv := tensor.Randn(rng, nOwn, f)
		ex := &fakeExchange{haloRows: tensor.Randn(rng, halo, f), remote: tensor.Randn(rng, nOwn, f)}

		x := NewVariable(xv.Clone())
		out := ShardSpMM(shardBlock(local), ex, x)
		if err := Backward(SumAll(out)); err != nil {
			t.Fatal(err)
		}
		wantOut, wantGrad := referenceShardSpMM(local, xv, ex.haloRows, tensor.Ones(nOwn, f), ex.remote)

		for name, pair := range map[string][2]*tensor.Tensor{"forward": {out.Value, wantOut}, "gradient": {x.Grad, wantGrad}} {
			got, want := pair[0].Contiguous().Data(), pair[1].Contiguous().Data()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("halo=%d: %s element %d differs bitwise: %v vs %v", halo, name, i, got[i], want[i])
				}
			}
		}
		want := []string{"gatherStart", "gatherFinish", "scatterStart", "scatterFinish"}
		if len(ex.calls) != len(want) {
			t.Fatalf("halo=%d: calls %v, want %v", halo, ex.calls, want)
		}
		for i := range want {
			if ex.calls[i] != want[i] {
				t.Fatalf("halo=%d: calls %v, want %v", halo, ex.calls, want)
			}
		}
		if ex.inFlight != 0 {
			t.Fatalf("halo=%d: unbalanced Start/Finish: %d", halo, ex.inFlight)
		}
	}
}
