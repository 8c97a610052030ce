package batching

import (
	"runtime"
	"testing"
	"time"

	"pgti/internal/tensor"
)

func prefetchDataset(t *testing.T, nodes int) (*IndexDataset, [][]int) {
	t.Helper()
	raw := tensor.Randn(tensor.NewRNG(99), 64, nodes, 1)
	ds, err := NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	split := MakeSplit(ds.NumSnapshots(), 0.7, 0.1)
	return ds, Batches(split.Train, 4)
}

// TestPrefetcherBitwiseMatchesSerial: every batch handed out by the pipeline
// is bitwise identical to a serial AssembleBatch of the same indices. Run
// under -race this also exercises the double-buffer contract: the consumer
// reads batch i in full while the producer is concurrently assembling batch
// i+1 into the other slot — a single shared buffer would be a write/read race
// the detector flags.
func TestPrefetcherBitwiseMatchesSerial(t *testing.T) {
	ds, batches := prefetchDataset(t, 8)
	p := NewPrefetcher(ds, batches)
	defer p.Close()

	var ref BatchBuffer
	n := 0
	for {
		x, y, ok := p.Next()
		if !ok {
			break
		}
		// Touch every element of the handed-out views before re-checking
		// them, so a torn slot cannot masquerade as a transient.
		var sum float64
		for _, v := range x.Data() {
			sum += v
		}
		for _, v := range y.Data() {
			sum += v
		}
		_ = sum
		rx, ry := ds.AssembleBatch(batches[n], &ref)
		if !x.Equal(rx) || !y.Equal(ry) {
			t.Fatalf("batch %d: prefetched contents differ from serial assembly", n)
		}
		n++
	}
	if n != len(batches) {
		t.Fatalf("prefetcher yielded %d batches, want %d", n, len(batches))
	}
}

// TestPrefetcherOneDeep: the pipeline never runs more than one assembled
// batch ahead of the consumer — with the consumer holding batch 0, only
// batch 1 can be in flight, so closing then draining shows no skipped slots.
func TestPrefetcherOneDeep(t *testing.T) {
	ds, batches := prefetchDataset(t, 4)
	if len(batches) < 3 {
		t.Fatalf("need at least 3 batches, got %d", len(batches))
	}
	p := NewPrefetcher(ds, batches)
	defer p.Close()

	var ref BatchBuffer
	x0, _, ok := p.Next()
	if !ok {
		t.Fatal("no first batch")
	}
	// Give the producer time to overrun if it were going to: at most batch 1
	// may be assembled (into the other slot) and parked in the handoff.
	time.Sleep(20 * time.Millisecond)
	rx0, _ := ds.AssembleBatch(batches[0], &ref)
	if !x0.Equal(rx0) {
		t.Fatal("batch 0 was overwritten while the consumer still held it")
	}
	x1, _, ok := p.Next()
	if !ok {
		t.Fatal("no second batch")
	}
	rx1, _ := ds.AssembleBatch(batches[1], &ref)
	if !x1.Equal(rx1) {
		t.Fatal("batch 1 contents wrong after one-deep handoff")
	}
}

// TestPrefetcherCloseMidStreamNoLeak: cancelling mid-schedule reclaims the
// assembly goroutine, and Close is idempotent.
func TestPrefetcherCloseMidStreamNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 8; trial++ {
		ds, batches := prefetchDataset(t, 4)
		p := NewPrefetcher(ds, batches)
		if _, _, ok := p.Next(); !ok {
			t.Fatal("no first batch")
		}
		p.Close()
		p.Close() // idempotent
		if _, _, ok := p.Next(); ok {
			t.Fatal("Next returned a batch after Close")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrefetcherExhaustedThenClose: letting the schedule drain naturally and
// then closing must not hang or panic.
func TestPrefetcherExhaustedThenClose(t *testing.T) {
	ds, batches := prefetchDataset(t, 4)
	p := NewPrefetcher(ds, batches)
	for {
		if _, _, ok := p.Next(); !ok {
			break
		}
	}
	p.Close()
}

// TestSourcesAgree: the standard and index pipelines are two Sources over the
// same signal — same shape, same snapshot count — and a Prefetcher over the
// materialized one hands out exactly what its Batch gathers.
func TestSourcesAgree(t *testing.T) {
	raw := tensor.Randn(tensor.NewRNG(99), 64, 8, 2)
	std, err := StandardPreprocess(raw.Clone(), 3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b [4]int
	a[0], a[1], a[2], a[3] = std.Dims()
	b[0], b[1], b[2], b[3] = idx.Dims()
	if a != b || a != [4]int{64, 3, 8, 2} || std.NumSnapshots() != idx.NumSnapshots() {
		t.Fatalf("sources disagree: standard %v (%d snapshots), index %v (%d)", a, std.NumSnapshots(), b, idx.NumSnapshots())
	}
	if m, s := std.Norm(); m != std.Mean || s != std.Std {
		t.Fatalf("Norm() = %v, %v", m, s)
	}
	batches := Batches(MakeSplit(std.NumSnapshots(), 0.7, 0.1).Train, 4)
	p := NewPrefetcher(Source(std), batches)
	defer p.Close()
	for i, batch := range batches {
		x, y, ok := p.Next()
		rx, ry := std.Batch(batch)
		if !ok || !x.Equal(rx) || !y.Equal(ry) {
			t.Fatalf("batch %d: prefetched standard batch differs from Batch", i)
		}
	}
}
