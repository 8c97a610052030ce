package experiments

import (
	"fmt"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/perfmodel"
	"pgti/internal/tensor"
)

func init() {
	registry["ablation"] = Ablation
}

// Ablation runs the design-choice studies behind README's "Three
// parallelism axes" and "The collective stack", beyond the paper's own
// tables: the horizon sweep of eq. 1 vs eq. 2, ring vs naive
// AllReduce at Polaris scale, per-epoch shuffling costs, and view- vs
// copy-based snapshot assembly.
func Ablation(opt Options) error {
	opt = opt.filled()
	w := opt.Out

	// 1. Horizon sweep: the data-duplication factor is linear in horizon
	// for standard batching and flat for index-batching — the structural
	// reason the paper's technique wins more as horizons grow.
	header(w, "Ablation 1: eq. 1 vs eq. 2 across horizons (PeMS-BAY shapes)")
	row(w, fmt.Sprintf("%8s %14s %14s %8s", "horizon", "standard", "index", "ratio"))
	base := dataset.PeMSBay
	for _, h := range []int{3, 6, 12, 24, 48} {
		m := base
		m.Horizon = h
		row(w, fmt.Sprintf("%8d %11.3f GiB %11.3f GiB %7.1fx",
			h, gb(m.StandardBytes()), gb(m.IndexBytes()),
			float64(m.StandardBytes())/float64(m.IndexBytes())))
	}

	// 2. AllReduce algorithm at Polaris scale: ring cost is ~flat in the
	// worker count, the naive gather/broadcast is linear — why DDP uses
	// rings.
	header(w, "Ablation 2: modeled AllReduce cost, PGT-DCRNN gradients on PeMS")
	net := cluster.SlingshotModel()
	grad := perfmodel.PGTDCRNNDims(dataset.PeMS.Nodes, dataset.PeMS.Nodes*9).GradBytes()
	row(w, fmt.Sprintf("%8s %14s %14s", "workers", "ring", "naive"))
	for _, p := range []int{4, 16, 64, 128} {
		row(w, fmt.Sprintf("%8d %14v %14v",
			p, net.RingAllReduceTime(grad, p).Round(time.Microsecond),
			net.NaiveAllReduceTime(grad, p).Round(time.Microsecond)))
	}
	if net.NaiveAllReduceTime(grad, 128) < 10*net.RingAllReduceTime(grad, 128) {
		return fmt.Errorf("ablation: naive AllReduce should be >10x the ring at 128 workers")
	}

	// 3. Shuffling strategies: measured wall cost of producing one epoch's
	// schedule for a PeMS-scale training split.
	header(w, "Ablation 3: epoch-schedule cost of the three shufflers (measured)")
	train := make([]int, perfmodel.TrainSnapshots(dataset.PeMS))
	for i := range train {
		train[i] = i
	}
	samplers := []batching.BatchSampler{
		batching.NewGlobalShuffler(train, 64, 8, 3, opt.Seed),
		batching.NewLocalShuffler(train, 64, 8, 3, opt.Seed),
		batching.NewBatchShuffler(train, 64, 8, 3, opt.Seed),
	}
	for _, s := range samplers {
		start := time.Now()
		n := 0
		for e := 0; e < 5; e++ {
			n += len(s.EpochBatches(e))
		}
		row(w, fmt.Sprintf("%-16s %10v for 5 epochs (%d batches)", s.Describe(), time.Since(start).Round(time.Microsecond), n))
	}

	// 4. Snapshot assembly: zero-copy views vs per-snapshot copies — the
	// micro-mechanism behind index-batching's "no runtime penalty" claim.
	header(w, "Ablation 4: snapshot reconstruction, views vs copies (measured)")
	sig := tensor.Randn(tensor.NewRNG(opt.Seed), 1500, 100, 2)
	idx, err := batching.NewIndexDataset(sig.Clone(), 12, 0.7, nil)
	if err != nil {
		return err
	}
	const reps = 3000
	start := time.Now()
	for i := 0; i < reps; i++ {
		x, y := idx.Snapshot(i % idx.NumSnapshots())
		_, _ = x, y
	}
	viewTime := time.Since(start)
	start = time.Now()
	for i := 0; i < reps; i++ {
		s := i % idx.NumSnapshots()
		_ = sig.Slice(0, s, s+12).Clone()
		_ = sig.Slice(0, s+12, s+24).Clone()
	}
	copyTime := time.Since(start)
	fmt.Fprintf(w, "views: %v, copies: %v for %d snapshots (%.0fx)\n",
		viewTime.Round(time.Microsecond), copyTime.Round(time.Microsecond), reps,
		float64(copyTime)/float64(maxDuration(viewTime, time.Nanosecond)))
	if copyTime < viewTime {
		return fmt.Errorf("ablation: views must be cheaper than copies")
	}
	return nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
