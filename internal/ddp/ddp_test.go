package ddp_test

import (
	"math"
	"testing"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/graph"
	"pgti/internal/nn"
	"pgti/internal/shard"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// flatWorld is the fixture of the trainer-behaviour tests in this package: a
// small index dataset and a model over a shared sensor graph, trained by the
// grid trainer on the flat 1 x Replicas world — plain DDP. The tests live
// beside the sync machinery they exercise; shard imports ddp, so they reach
// the trainer from the external test package.
type flatWorld struct {
	data     *batching.IndexDataset
	split    batching.Split
	g        *graph.Graph
	supports []*sparse.CSR
	horizon  int
}

// testSetup builds the flat-world fixture.
func testSetup(t testing.TB, entries, nodes, horizon int) *flatWorld {
	t.Helper()
	g, err := graph.RoadNetwork(3, nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	raw := tensor.Randn(tensor.NewRNG(5), entries, nodes, 1)
	data, err := batching.NewIndexDataset(raw, horizon, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &flatWorld{
		data: data, split: batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1),
		g: g, supports: []*sparse.CSR{fwd, bwd}, horizon: horizon,
	}
}

// factory builds one replica over the given propagators.
func (fw *flatWorld) factory(seed uint64, props []nn.Propagator) nn.SeqModel {
	return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 6, fw.horizon)
}

// model builds one full-graph replica.
func (fw *flatWorld) model(seed uint64) nn.SeqModel {
	return fw.factory(seed, nn.WrapSupports(fw.supports))
}

// train runs cfg on the flat world (Shards is fixed at 1).
func (fw *flatWorld) train(cfg shard.Config) (*shard.Result, error) {
	cfg.Shards = 1
	return shard.Train(fw.data, fw.split, fw.g, fw.supports, fw.factory, cfg)
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	l := nn.NewLinear(tensor.NewRNG(1), "l", 3, 2)
	out := l.Forward(autograd.NewVariable(tensor.Ones(4, 3)))
	if err := autograd.Backward(autograd.MeanAll(out)); err != nil {
		t.Fatal(err)
	}
	params := l.Parameters()
	vec := ddp.FlattenGrads(params, nil)
	if len(vec) != 8 {
		t.Fatalf("flattened length %d want 8", len(vec))
	}
	// Perturb and write back.
	for i := range vec {
		vec[i] = float64(i)
	}
	ddp.UnflattenGrads(params, vec)
	if params[0].V.Grad.At(1, 1) != 3 || params[1].V.Grad.At(1) != 7 {
		t.Fatal("unflatten misplaced gradients")
	}
	// Missing gradients flatten to zeros.
	nn.ZeroGrads(l)
	vec = ddp.FlattenGrads(params, vec)
	for _, v := range vec {
		if v != 0 {
			t.Fatal("missing grads must flatten to zero")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	fw := testSetup(t, 60, 6, 3)
	bad := []shard.Config{
		{Replicas: 0, BatchSize: 4, Epochs: 1},
		{Replicas: 1, BatchSize: 0, Epochs: 1},
		{Replicas: 1, BatchSize: 4, Epochs: 0},
		{Replicas: 100, BatchSize: 4, Epochs: 1}, // more workers than samples
	}
	for i, cfg := range bad {
		if _, err := fw.train(cfg); err == nil {
			t.Fatalf("case %d: expected config error", i)
		}
	}
}

func TestSingleWorkerTrainingConverges(t *testing.T) {
	fw := testSetup(t, 80, 6, 3)
	res, err := fw.train(shard.Config{
		Replicas: 1, BatchSize: 4, Epochs: 4, LR: 0.01, ClipNorm: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 4 {
		t.Fatalf("curve length %d", len(res.Curve))
	}
	if res.Curve[3].TrainMAE >= res.Curve[0].TrainMAE {
		t.Fatalf("training MAE did not decrease: %v -> %v", res.Curve[0].TrainMAE, res.Curve[3].TrainMAE)
	}
	if res.GlobalBatch != 4 {
		t.Fatalf("global batch %d", res.GlobalBatch)
	}
	if res.GradSyncBytes != 0 && res.Steps == 0 {
		t.Fatal("inconsistent accounting")
	}
}

func TestMultiWorkerReplicasStayIdentical(t *testing.T) {
	fw := testSetup(t, 80, 6, 3)
	// Train verifies replica checksums internally and errors on divergence.
	res, err := fw.train(shard.Config{
		Replicas: 3, BatchSize: 3, Epochs: 2, LR: 0.01, ClipNorm: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalBatch != 9 {
		t.Fatalf("global batch %d", res.GlobalBatch)
	}
	if res.Steps == 0 || res.GradSyncBytes == 0 {
		t.Fatal("no work recorded")
	}
	if res.VirtualTime <= 0 {
		t.Fatal("virtual time must advance")
	}
	// With the measured overlap timeline the exposed tail can legitimately
	// be zero (all comm hidden under backward), but the run must have
	// recorded communication somewhere.
	if res.CommTime+res.CommHiddenTime <= 0 {
		t.Fatal("multi-worker run must record communication time")
	}
}

// TestDDPMatchesSequentialReference verifies the core DDP identity: with two
// workers each taking one fixed batch, the post-step parameters equal a
// sequential run that averages the two batch gradients by hand.
func TestDDPMatchesSequentialReference(t *testing.T) {
	horizon := 3
	nodes := 6
	// Train split sized to exactly 2 batches of 4.
	entries := 2*horizon + 11 // 12 snapshots -> train split 8 = 2 batches of 4 (70% of 12 = 8)
	fw := testSetup(t, entries, nodes, horizon)
	data, split := fw.data, fw.split
	if len(split.Train) != 8 {
		t.Fatalf("train split %d, test assumes 8", len(split.Train))
	}
	batchSize := 4
	const seed = 7

	// Distributed run: 2 workers, ddp.BatchShuffle (fixed contiguous batches),
	// 1 epoch = 1 step each.
	res, err := fw.train(shard.Config{
		Replicas: 2, BatchSize: batchSize, Epochs: 1, LR: 0.01, Sampler: ddp.BatchShuffle, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Fatalf("expected exactly 1 step, got %d", res.Steps)
	}

	// Sequential reference: same replicas, same two batches, averaged grads.
	model := fw.model(seed)
	params := model.Parameters()
	opt := nn.NewAdam(model, 0.01)
	var gradSum []float64
	var buf batching.BatchBuffer
	for rank := 0; rank < 2; rank++ {
		sampler := batching.NewBatchShuffler(split.Train, batchSize, 2, rank, seed)
		batch := sampler.EpochBatches(0)[0]
		x, y := data.AssembleBatch(batch, &buf)
		target := y.Slice(3, 0, 1).Contiguous()
		loss := autograd.MAELoss(model.Forward(autograd.Constant(x)), target)
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		g := ddp.FlattenGrads(params, nil)
		if gradSum == nil {
			gradSum = g
		} else {
			for i := range gradSum {
				gradSum[i] += g[i]
			}
		}
		nn.ZeroGrads(model)
	}
	for i := range gradSum {
		gradSum[i] /= 2
	}
	ddp.UnflattenGrads(params, gradSum)
	opt.Step()

	// Replay the distributed update deterministically.
	res2, err := fw.train(shard.Config{Replicas: 2, BatchSize: batchSize, Epochs: 1, LR: 0.01, Sampler: ddp.BatchShuffle, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Curve[0].TrainMAE != res.Curve[0].TrainMAE {
		t.Fatal("distributed run must be deterministic")
	}

	// Check the parameter update directly against the trainer's own replica.
	ref := FlattenParams(params)
	distAfter := FlattenParams(res.Model.Parameters())
	if len(ref) != len(distAfter) {
		t.Fatal("parameter vector lengths differ")
	}
	for i := range ref {
		if math.Abs(ref[i]-distAfter[i]) > 1e-11 {
			t.Fatalf("parameter %d differs: sequential %v vs distributed %v", i, ref[i], distAfter[i])
		}
	}
}

// FlattenParams packs parameter values into one vector (test helper).
func FlattenParams(params []*nn.Parameter) []float64 {
	var out []float64
	for _, p := range params {
		out = append(out, p.Tensor().Contiguous().Data()...)
	}
	return out
}

func TestDeterministicRuns(t *testing.T) {
	fw := testSetup(t, 70, 6, 3)
	cfg := shard.Config{Replicas: 2, BatchSize: 4, Epochs: 2, LR: 0.01, Seed: 11}
	a, err := fw.train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curves differ at epoch %d: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}

func TestRemoteFetchChargesCommTime(t *testing.T) {
	fw := testSetup(t, 70, 6, 3)
	// 22 training snapshots over 2 replicas in batches of 4: each replica's
	// epoch is 4, 4, 3, so the last fetch carries a short tail batch.
	fw.split.Train = fw.split.Train[:22]
	base, err := fw.train(shard.Config{
		Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 3,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	fetch, err := fw.train(shard.Config{
		Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 3, Feed: shard.Feed{Remote: true},
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fetch.CommTime <= base.CommTime {
		t.Fatalf("remote fetch must add communication time: %v vs %v", fetch.CommTime, base.CommTime)
	}
	if fetch.VirtualTime <= base.VirtualTime {
		t.Fatal("remote fetch must slow the virtual clock")
	}
	// Each fetch is priced at the bytes of the batch it carries, tail
	// included: the CommTime delta is exactly rank 0's per-batch fetch costs.
	_, horizon, nodes, features := fw.data.Dims()
	pairBytes := int64(2*horizon) * int64(nodes) * int64(features) * 8
	batches := ddp.NewSampler(ddp.GlobalShuffle, fw.split.Train, 4, 2, 0, 3).EpochBatches(0)
	net := cluster.SlingshotModel()
	var want time.Duration
	short := false
	for _, b := range batches {
		want += net.FetchTime(int64(len(b)) * pairBytes)
		short = short || len(b) < 4
	}
	if !short {
		t.Fatalf("fixture lost its short tail batch: %v", batches)
	}
	if got := fetch.CommTime - base.CommTime; got != want {
		t.Fatalf("remote fetches charged %v, want %v (per-batch sizes)", got, want)
	}
	// Accuracy is unaffected by the data path.
	if fetch.Curve[0].TrainMAE != base.Curve[0].TrainMAE {
		t.Fatal("data path must not change the numerics")
	}
}

func TestModeledComputeCostDrivesClock(t *testing.T) {
	fw := testSetup(t, 70, 6, 3)
	slow, err := fw.train(shard.Config{
		Replicas: 1, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 4,
		ComputeCost: func(int) time.Duration { return 100 * time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := fw.train(shard.Config{
		Replicas: 1, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 4,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.VirtualTime < 50*fast.VirtualTime {
		t.Fatalf("virtual clock must follow the compute model: slow %v fast %v", slow.VirtualTime, fast.VirtualTime)
	}
}

func TestSamplerKindsTrain(t *testing.T) {
	fw := testSetup(t, 80, 6, 3)
	for _, kind := range []ddp.SamplerKind{ddp.GlobalShuffle, ddp.LocalShuffle, ddp.BatchShuffle} {
		res, err := fw.train(shard.Config{
			Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Sampler: kind, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.Curve) != 1 {
			t.Fatalf("%v: curve length %d", kind, len(res.Curve))
		}
	}
	if ddp.GlobalShuffle.String() != "global" || ddp.LocalShuffle.String() != "local" || ddp.BatchShuffle.String() != "batch" {
		t.Fatal("ddp.SamplerKind strings wrong")
	}
}

func TestLRScalingChangesTrajectory(t *testing.T) {
	fw := testSetup(t, 70, 6, 3)
	plain, err := fw.train(shard.Config{Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := fw.train(shard.Config{Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 6, UseLRScaling: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Curve[0].ValMAE == scaled.Curve[0].ValMAE {
		t.Fatal("LR scaling must change the trajectory")
	}
}

func TestBucketGrads(t *testing.T) {
	model := nn.NewPGTDCRNN(tensor.NewRNG(1), testSupports(t, 6), 1, 1, 6, 3)
	params := model.Parameters()
	total := 0
	for _, p := range params {
		total += p.Tensor().NumElements()
	}

	// A huge cap yields one bucket holding everything.
	one := ddp.BucketGrads(params, 1<<30)
	if len(one) != 1 || one[0].Elems != total {
		t.Fatalf("huge cap: %d buckets, %d elems (want 1 bucket, %d elems)", len(one), one[0].Elems, total)
	}

	// A small cap yields several, each within the cap unless a single
	// parameter alone exceeds it, and together covering every parameter in
	// reverse order.
	const capBytes = 256
	buckets := ddp.BucketGrads(params, capBytes)
	if len(buckets) < 2 {
		t.Fatalf("small cap produced %d buckets", len(buckets))
	}
	seen := 0
	pi := len(params) - 1
	for bi, b := range buckets {
		if len(b.Params) == 0 {
			t.Fatalf("bucket %d empty", bi)
		}
		if int64(b.Elems)*8 > capBytes && len(b.Params) > 1 {
			t.Fatalf("bucket %d exceeds cap with %d params", bi, len(b.Params))
		}
		for _, p := range b.Params {
			if p != params[pi] {
				t.Fatalf("bucket %d breaks reverse parameter order", bi)
			}
			pi--
			seen += p.Tensor().NumElements()
		}
	}
	if seen != total {
		t.Fatalf("buckets cover %d of %d elements", seen, total)
	}

	// Zero/negative caps fall back to the default.
	if got := ddp.BucketGrads(params, 0); len(got) != len(ddp.BucketGrads(params, ddp.DefaultBucketBytes)) {
		t.Fatal("zero cap must use ddp.DefaultBucketBytes")
	}
}

// testSupports builds transition matrices for a small road graph.
func testSupports(t testing.TB, nodes int) []*sparse.CSR {
	t.Helper()
	g, err := graph.RoadNetwork(3, nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	return []*sparse.CSR{fwd, bwd}
}

// TestBucketedOverlapBeatsFlatten is the headline property of the bucketed
// exchange: on a bandwidth-constrained fabric with 8 workers, overlapping
// per-bucket AllReduce with backward compute yields a strictly lower epoch
// virtual time than the flatten-then-AllReduce baseline, with identical
// learning dynamics.
func TestBucketedOverlapBeatsFlatten(t *testing.T) {
	fw := testSetup(t, 120, 6, 3)
	paramBytes := nn.ParameterBytes(fw.model(9))
	slowNet := cluster.NetworkModel{Bandwidth: 1e8, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond}
	base := shard.Config{
		Replicas: 8, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 9, Net: slowNet,
		ComputeCost: func(int) time.Duration { return 5 * time.Millisecond },
		BucketBytes: paramBytes / 4,
	}

	overlapCfg := base
	overlapCfg.Algo = ddp.GradAlgoRing
	overlap, err := fw.train(overlapCfg)
	if err != nil {
		t.Fatal(err)
	}
	flatCfg := base
	flatCfg.Algo = ddp.GradAlgoFlat
	flat, err := fw.train(flatCfg)
	if err != nil {
		t.Fatal(err)
	}

	if overlap.GradBuckets < 2 {
		t.Fatalf("expected multiple gradient buckets, got %d", overlap.GradBuckets)
	}
	if flat.GradBuckets != 1 {
		t.Fatalf("flatten baseline must report one bucket, got %d", flat.GradBuckets)
	}
	if overlap.CommHiddenTime <= 0 {
		t.Fatal("bucketed overlap must hide some communication under compute")
	}
	if flat.CommHiddenTime != 0 {
		t.Fatalf("flatten baseline must hide nothing, got %v", flat.CommHiddenTime)
	}
	if overlap.VirtualTime >= flat.VirtualTime {
		t.Fatalf("overlap %v must beat flatten %v", overlap.VirtualTime, flat.VirtualTime)
	}
	// Both modes exchange the same gradient volume and learn the same way
	// (up to summation-order noise in the ring reduce).
	if overlap.GradSyncBytes != flat.GradSyncBytes {
		t.Fatalf("gradient traffic differs: %d vs %d", overlap.GradSyncBytes, flat.GradSyncBytes)
	}
	if d := overlap.Curve[0].TrainMAE - flat.Curve[0].TrainMAE; math.Abs(d) > 1e-6 {
		t.Fatalf("sync schedule changed the numerics: ΔMAE %v", d)
	}
}

// TestBucketedOverlapDeterministicAndConsistent verifies replicas stay
// identical (Train checks checksums internally) and repeated bucketed runs
// are bit-reproducible across several worker counts.
func TestBucketedOverlapDeterministicAndConsistent(t *testing.T) {
	fw := testSetup(t, 90, 6, 3)
	for _, workers := range []int{2, 4} {
		cfg := shard.Config{
			Replicas: workers, BatchSize: 3, Epochs: 2, LR: 0.01, ClipNorm: 5, Seed: 13,
			BucketBytes: 512, // force several buckets
		}
		a, err := fw.train(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := fw.train(cfg)
		if err != nil {
			t.Fatalf("workers=%d rerun: %v", workers, err)
		}
		for i := range a.Curve {
			if a.Curve[i] != b.Curve[i] {
				t.Fatalf("workers=%d: bucketed run not deterministic at epoch %d", workers, i)
			}
		}
		if a.GradBuckets < 2 {
			t.Fatalf("workers=%d: expected several buckets, got %d", workers, a.GradBuckets)
		}
	}
}
