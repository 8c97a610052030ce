package shard

import (
	"math"
	"testing"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/graph"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// testGraph builds a deterministic sensor graph with its transition-matrix
// supports.
func testGraph(t *testing.T, n int) (*graph.Graph, []*sparse.CSR) {
	t.Helper()
	g, err := graph.RoadNetwork(7, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	return g, []*sparse.CSR{fwd, bwd}
}

func testData(t *testing.T, n int) (*batching.IndexDataset, batching.Split) {
	t.Helper()
	raw := tensor.Randn(tensor.NewRNG(21), 90, n, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data, batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
}

func TestBuildPlanCoversEveryNodeOnce(t *testing.T) {
	g, supports := testGraph(t, 37)
	for _, shards := range []int{1, 2, 3, 4} {
		plan, err := BuildPlan(g, supports, shards)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, g.N)
		for _, sp := range plan.Parts {
			for _, node := range sp.Own {
				if seen[node] {
					t.Fatalf("shards=%d: node %d owned twice", shards, node)
				}
				seen[node] = true
			}
		}
		for node, s := range seen {
			if !s {
				t.Fatalf("shards=%d: node %d unowned", shards, node)
			}
		}
		// Balance: the partitioner promises sizes within the balanced band.
		maxOwn := plan.MaxOwn()
		if ceil := (g.N + shards - 1) / shards; maxOwn > ceil {
			t.Fatalf("shards=%d: max shard size %d exceeds ceil(N/P)=%d", shards, maxOwn, ceil)
		}
		// Exchange plans must be pairwise consistent: what p sends q is what
		// q expects from p.
		for si := range supports {
			for p, sp := range plan.Parts {
				for q, sq := range plan.Parts {
					if len(sp.Exchanges[si].SendTo[q]) != len(sq.Exchanges[si].RecvPos[p]) {
						t.Fatalf("shards=%d support %d: %d->%d send %d vs recv %d",
							shards, si, p, q, len(sp.Exchanges[si].SendTo[q]), len(sq.Exchanges[si].RecvPos[p]))
					}
				}
			}
		}
	}
}

func TestPartitionRefinementReducesEdgeCut(t *testing.T) {
	g, _ := testGraph(t, 100)
	owner, err := graph.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut := graph.EdgeCut(g, owner)
	if cut <= 0 {
		t.Fatalf("expected a nonzero edge cut on a connected graph, got %d", cut)
	}
	// The locality-aware partition must beat the worst-case strided
	// assignment, which scatters neighbours across shards.
	strided := make([]int, g.N)
	for i := range strided {
		strided[i] = i % 4
	}
	if stridedCut := graph.EdgeCut(g, strided); cut >= stridedCut {
		t.Fatalf("BFS+refine cut %d not better than strided cut %d", cut, stridedCut)
	}
}

// TestShardedSpMMMatchesGlobal checks the core identity: the sharded
// propagators applied over a replica group reproduce the owned rows of the
// global SpMM.
func TestShardedSpMMMatchesGlobal(t *testing.T) {
	g, supports := testGraph(t, 29)
	f := 5
	x := tensor.Randn(tensor.NewRNG(3), g.N, f)
	want := supports[0].SpMM(x)

	for _, shards := range []int{2, 3, 4} {
		plan, err := BuildPlan(g, supports, shards)
		if err != nil {
			t.Fatal(err)
		}
		clu, err := cluster.New(cluster.Config{Workers: shards})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*tensor.Tensor, shards)
		group := make([]int, shards)
		for i := range group {
			group[i] = i
		}
		err = clu.Run(func(w *cluster.Worker) error {
			sp := plan.Parts[w.Rank()]
			stats := &Stats{}
			ex := NewExchanger(w, group, sp.Shard, sp.Exchanges[0], cluster.Topology{}, stats, false)
			local := gatherRows(x, sp.Own)
			halo := ex.Gather(local)
			ext := local
			if halo.Dim(0) > 0 {
				ext = tensor.Concat(0, local, halo)
			}
			got[w.Rank()] = sp.Supports[0].Local.SpMM(ext)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for p, sp := range plan.Parts {
			for i, node := range sp.Own {
				for j := 0; j < f; j++ {
					if d := math.Abs(got[p].At(i, j) - want.At(node, j)); d > 1e-12 {
						t.Fatalf("shards=%d: row %d (global %d) col %d differs by %g", shards, i, node, j, d)
					}
				}
			}
		}
	}
}

func gatherRows(x *tensor.Tensor, rows []int) *tensor.Tensor {
	out := tensor.New(len(rows), x.Dim(1))
	for i, r := range rows {
		out.Slice(0, i, i+1).CopyFrom(x.Slice(0, r, r+1))
	}
	return out
}

// referenceRun trains the unsharded single-worker baseline: the same loop
// on the 1x1 grid.
func referenceRun(t *testing.T, data *batching.IndexDataset, split batching.Split, g *graph.Graph, supports []*sparse.CSR, model ModelFactory, epochs int) *Result {
	t.Helper()
	res, err := Train(data, split, g, supports, model, Config{Shards: 1, Replicas: 1, BatchSize: 4, Epochs: epochs, LR: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHybridEquivalence is the acceptance suite: sharded forward/backward
// training (shards in {2, 3, 4}, with and without DDP replicas) matches the
// unsharded single-worker run within fp64 reassociation tolerance, for both
// the PGT-DCRNN (DiffConv) and DCRNN model families.
func TestHybridEquivalence(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	models := map[string]func(seed uint64, props []nn.Propagator) nn.SeqModel{
		"pgt-dcrnn": func(seed uint64, props []nn.Propagator) nn.SeqModel {
			return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 2, 1, 6, 3)
		},
		"dcrnn": func(seed uint64, props []nn.Propagator) nn.SeqModel {
			return nn.NewDCRNNOn(tensor.NewRNG(seed), props, nn.DCRNNConfig{In: 1, Hidden: 6, Layers: 1, K: 2, Horizon: 3})
		},
	}
	grids := []struct{ shards, replicas int }{
		{2, 1}, {3, 1}, {4, 1}, {2, 2}, {4, 2},
	}
	for name, model := range models {
		ref := referenceRun(t, data, split, g, supports, model, 2)
		for _, grid := range grids {
			if grid.replicas > 1 && name == "dcrnn" {
				continue // one hybrid model family suffices for the grid sweep
			}
			res, err := Train(data, split, g, supports, model, Config{
				Shards: grid.shards, Replicas: grid.replicas,
				BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
			})
			if err != nil {
				t.Fatalf("%s %dx%d: %v", name, grid.shards, grid.replicas, err)
			}
			if grid.replicas == 1 {
				// Same global batch and schedule as the reference: the loss
				// curve must agree to fp64 reassociation tolerance.
				if len(res.Curve) != len(ref.Curve) {
					t.Fatalf("%s %dx%d: curve length %d vs %d", name, grid.shards, grid.replicas, len(res.Curve), len(ref.Curve))
				}
				for i := range res.Curve {
					if d := relDiff(res.Curve[i].TrainMAE, ref.Curve[i].TrainMAE); d > 1e-9 {
						t.Errorf("%s %dx%d epoch %d: train MAE %v vs %v (rel %g)", name, grid.shards, grid.replicas, i, res.Curve[i].TrainMAE, ref.Curve[i].TrainMAE, d)
					}
					if d := relDiff(res.Curve[i].ValMAE, ref.Curve[i].ValMAE); d > 1e-9 {
						t.Errorf("%s %dx%d epoch %d: val MAE %v vs %v (rel %g)", name, grid.shards, grid.replicas, i, res.Curve[i].ValMAE, ref.Curve[i].ValMAE, d)
					}
				}
			} else {
				// With replicas the global batch changes; check the hybrid
				// run against the pure-DDP run at the same replica count.
				ddpRef, err := Train(data, split, g, supports, model, Config{
					Shards: 1, Replicas: grid.replicas, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range res.Curve {
					if d := relDiff(res.Curve[i].ValMAE, ddpRef.Curve[i].ValMAE); d > 1e-9 {
						t.Errorf("%s %dx%d epoch %d: val MAE %v vs DDP %v (rel %g)", name, grid.shards, grid.replicas, i, res.Curve[i].ValMAE, ddpRef.Curve[i].ValMAE, d)
					}
				}
			}
			if grid.shards > 1 && res.HaloBytes == 0 {
				t.Errorf("%s %dx%d: expected nonzero halo traffic", name, grid.shards, grid.replicas)
			}
			if res.MaxOwn > (g.N+grid.shards-1)/grid.shards {
				t.Errorf("%s %dx%d: MaxOwn %d exceeds balanced share", name, grid.shards, grid.replicas, res.MaxOwn)
			}
		}
	}
}

// TestHybridA3TGCNEquivalence extends the suite to the attention model
// (single forward support).
func TestHybridA3TGCNEquivalence(t *testing.T) {
	g, supports := testGraph(t, 18)
	data, split := testData(t, g.N)
	supports = supports[:1]
	model := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewA3TGCNOn(tensor.NewRNG(seed), props[0], 1, 6, 3)
	}
	ref := referenceRun(t, data, split, g, supports, model, 1)
	res, err := Train(data, split, g, supports, model, Config{
		Shards: 3, Replicas: 1, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Curve {
		if d := relDiff(res.Curve[i].ValMAE, ref.Curve[i].ValMAE); d > 1e-9 {
			t.Errorf("epoch %d: val MAE %v vs %v (rel %g)", i, res.Curve[i].ValMAE, ref.Curve[i].ValMAE, d)
		}
	}
}

// TestHybridDeterminism: two identical hybrid runs produce bit-identical
// curves.
func TestHybridDeterminism(t *testing.T) {
	g, supports := testGraph(t, 20)
	data, split := testData(t, g.N)
	model := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 4, 3)
	}
	cfg := Config{Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 9}
	a, err := Train(data, split, g, supports, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, split, g, supports, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("epoch %d: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}

// TestHybridVirtualTimeAccounting: the modeled clock includes gradient sync
// and halo exchange under a slow fabric, and halo time is reported
// separately from gradient communication.
func TestHybridVirtualTimeAccounting(t *testing.T) {
	g, supports := testGraph(t, 20)
	data, split := testData(t, g.N)
	model := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 4, 3)
	}
	net := cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond}
	res, err := Train(data, split, g, supports, model, Config{
		Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 9,
		Net:         net,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HaloTime <= 0 || res.HaloBytes <= 0 {
		t.Fatalf("expected positive halo accounting, got %v / %d bytes", res.HaloTime, res.HaloBytes)
	}
	if res.CommTime <= 0 {
		t.Fatalf("expected positive gradient comm, got %v", res.CommTime)
	}
	if res.VirtualTime < res.CommTime {
		t.Fatalf("virtual time %v below exposed comm %v", res.VirtualTime, res.CommTime)
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// TestOverlapMatchesBlockingBitwise: the interior-first halo schedule must
// leave training curves exactly equal (bitwise) to the blocking schedule —
// across shard counts with the flatten sync, and including the bucketed
// two-stage sync on 2-member groups, where the ring chunking coincides and
// no floating-point reassociation occurs.
func TestOverlapMatchesBlockingBitwise(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	model := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 6, 3)
	}
	base := Config{BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5}
	run := func(shards, replicas int, halo HaloSyncMode, algo ddp.GradAlgo) metrics.Curve {
		cfg := base
		cfg.Shards, cfg.Replicas = shards, replicas
		cfg.HaloSync, cfg.Algo = halo, algo
		res, err := Train(data, split, g, supports, model, cfg)
		if err != nil {
			t.Fatalf("%dx%d halo=%v algo=%v: %v", shards, replicas, halo, algo, err)
		}
		return res.Curve
	}
	// Halo overlap alone is bitwise-transparent at any shard count.
	for _, shards := range []int{2, 3, 4} {
		blocking := run(shards, 1, HaloSyncBlocking, ddp.GradAlgoFlat)
		overlapped := run(shards, 1, HaloSyncOverlap, ddp.GradAlgoFlat)
		for i := range blocking {
			if blocking[i] != overlapped[i] {
				t.Fatalf("shards=%d epoch %d: overlapped curve %+v != blocking %+v", shards, i, overlapped[i], blocking[i])
			}
		}
	}
	// Fully-overlapped default vs fully-blocking at 2x2: every collective
	// reduces over 2-member groups, so even the bucketed two-stage sync is
	// association-free and the curves stay bitwise equal.
	blocking := run(2, 2, HaloSyncBlocking, ddp.GradAlgoFlat)
	overlapped := run(2, 2, HaloSyncOverlap, ddp.GradAlgoRing)
	for i := range blocking {
		if blocking[i] != overlapped[i] {
			t.Fatalf("2x2 epoch %d: overlapped curve %+v != blocking %+v", i, overlapped[i], blocking[i])
		}
	}
}

// TestOverlapHidesCommunication: under a slow fabric with modeled compute,
// the overlapped schedules must hide communication (halo and gradient) under
// the step compute — shrinking the modeled epoch time versus the blocking
// schedules while the total halo cost stays identical.
func TestOverlapHidesCommunication(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	model := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 6, 3)
	}
	net := cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond}
	run := func(halo HaloSyncMode, algo ddp.GradAlgo) *Result {
		res, err := Train(data, split, g, supports, model, Config{
			Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 9,
			Net: net, ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
			HaloSync: halo, Algo: algo,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	blocking := run(HaloSyncBlocking, ddp.GradAlgoFlat)
	overlapped := run(HaloSyncOverlap, ddp.GradAlgoRing)

	if overlapped.VirtualTime >= blocking.VirtualTime {
		t.Fatalf("overlap did not shrink the modeled epoch: %v vs blocking %v", overlapped.VirtualTime, blocking.VirtualTime)
	}
	if overlapped.HaloTime != blocking.HaloTime {
		t.Fatalf("total halo cost changed under overlap: %v vs %v", overlapped.HaloTime, blocking.HaloTime)
	}
	if overlapped.HaloHiddenTime <= 0 || overlapped.HaloHiddenTime > overlapped.HaloTime {
		t.Fatalf("halo hidden time %v outside (0, %v]", overlapped.HaloHiddenTime, overlapped.HaloTime)
	}
	if blocking.HaloHiddenTime != 0 || blocking.CommHiddenTime != 0 {
		t.Fatalf("blocking run reported hidden comm: halo %v, grad %v", blocking.HaloHiddenTime, blocking.CommHiddenTime)
	}
	if overlapped.CommHiddenTime < 0 {
		t.Fatalf("negative hidden gradient comm %v", overlapped.CommHiddenTime)
	}
	// The chunked two-stage collective is itself cheaper than the blocking
	// two-ring exchange, so exposed + hidden must stay below the blocking
	// exposure.
	if total := overlapped.CommTime + overlapped.CommHiddenTime; total > blocking.CommTime {
		t.Fatalf("bucketed two-stage total %v exceeds blocking exposure %v", total, blocking.CommTime)
	}
	if overlapped.GradBuckets < 1 || overlapped.GradBucketBytes <= 0 {
		t.Fatalf("bucketed run reported %d buckets, cap %d", overlapped.GradBuckets, overlapped.GradBucketBytes)
	}
	if blocking.GradBuckets != 1 || blocking.GradBucketBytes != 0 {
		t.Fatalf("flatten run reported %d buckets, cap %d", blocking.GradBuckets, blocking.GradBucketBytes)
	}
}

// TestHybridFP16AndAutotune: the collective-stack knobs compose with the
// bucketed two-stage sync — fp16 saves wire traffic deterministically, the
// autotuner locks a ladder candidate, and runs stay bit-reproducible.
func TestHybridFP16AndAutotune(t *testing.T) {
	g, supports := testGraph(t, 20)
	data, split := testData(t, g.N)
	model := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 4, 3)
	}
	cfg := Config{
		Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 9,
		FP16: true, AutoTuneBuckets: true, BucketBytes: 8 << 10,
	}
	var locked int64
	cfg.OnAutotuneLock = func(b int64) { locked = b }
	a, err := Train(data, split, g, supports, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CommBytesSaved <= 0 {
		t.Fatalf("fp16 saved no wire bytes: %d", a.CommBytesSaved)
	}
	if locked <= 0 || a.GradBucketBytes != locked {
		t.Fatalf("autotuner lock: hook saw %d, result says %d", locked, a.GradBucketBytes)
	}
	b, err := Train(data, split, g, supports, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("fp16+autotune run not reproducible at epoch %d: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}
