package ddp_test

import (
	"math"
	"testing"
	"time"

	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/nn"
	"pgti/internal/shard"
)

// slowFabric is a bandwidth-constrained inter-node network that makes the
// modeled communication dominate the modeled compute, so collective-cost
// assertions are robust to measured-timeline jitter.
var slowFabric = cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond}

// TestDeterminismAcrossAlgosAndWorkers is the determinism regression suite:
// the same Config.Seed must produce a bit-identical loss curve run-to-run
// for every worker count (locking in the rank-ordered time-barrier
// reduction at >2 workers), and at two workers — where fp64 summation is
// order-independent — the flat, ring, and hierarchical algorithms must
// produce bitwise-identical curves.
func TestDeterminismAcrossAlgosAndWorkers(t *testing.T) {
	fw := testSetup(t, 90, 6, 3)
	for _, workers := range []int{2, 3, 4} {
		cfg := shard.Config{
			Replicas: workers, BatchSize: 3, Epochs: 2, LR: 0.01, Seed: 17,
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
				t.Fatalf("workers=%d: curve not bit-identical at epoch %d: %+v vs %+v", workers, i, a.Curve[i], b.Curve[i])
			}
		}
	}

	// Two-worker cross-algorithm equivalence at fp64: averaging two replicas
	// is the same sum in any order, so the collective algorithm must not
	// change a single bit of the trajectory.
	curves := map[ddp.GradAlgo][]float64{}
	for _, algo := range []ddp.GradAlgo{ddp.GradAlgoFlat, ddp.GradAlgoRing, ddp.GradAlgoHierarchical} {
		cfg := shard.Config{
			Replicas: 2, BatchSize: 3, Epochs: 2, LR: 0.01, Seed: 17,
			Algo: algo, Topology: cluster.Topology{GPUsPerNode: 2}, BucketBytes: 512,
		}
		res, err := fw.train(cfg)
		if err != nil {
			t.Fatalf("algo=%v: %v", algo, err)
		}
		for _, rec := range res.Curve {
			curves[algo] = append(curves[algo], rec.TrainMAE, rec.ValMAE)
		}
	}
	for algo, c := range curves {
		for i := range c {
			if c[i] != curves[ddp.GradAlgoFlat][i] {
				t.Fatalf("algo %v diverges from flat at curve point %d: %v vs %v", algo, i, c[i], curves[ddp.GradAlgoFlat][i])
			}
		}
	}
}

// TestHierarchicalBeatsRingDDP is the acceptance property: with 8 workers
// laid out as Topology{2,4}, the hierarchical AllReduce's modeled
// communication cost — and with it the epoch virtual time — must undercut
// the flat ring, which pays every hop at fabric bandwidth.
func TestHierarchicalBeatsRingDDP(t *testing.T) {
	fw := testSetup(t, 120, 6, 3)
	paramBytes := nn.ParameterBytes(fw.model(9))
	base := shard.Config{
		Replicas: 8, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 9, Net: slowFabric,
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
		BucketBytes: paramBytes / 4,
	}

	ringCfg := base
	ringCfg.Algo = ddp.GradAlgoRing
	ring, err := fw.train(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	hierCfg := base
	hierCfg.Algo = ddp.GradAlgoHierarchical
	hierCfg.Topology = cluster.Topology{Nodes: 2, GPUsPerNode: 4}
	hier, err := fw.train(hierCfg)
	if err != nil {
		t.Fatal(err)
	}

	if hier.CommTime >= ring.CommTime {
		t.Fatalf("hierarchical exposed comm %v must beat flat ring %v", hier.CommTime, ring.CommTime)
	}
	if ht, rt := hier.CommTime+hier.CommHiddenTime, ring.CommTime+ring.CommHiddenTime; ht >= rt {
		t.Fatalf("hierarchical total comm %v must beat flat ring %v", ht, rt)
	}
	if hier.VirtualTime >= ring.VirtualTime {
		t.Fatalf("hierarchical epoch %v must beat flat ring %v", hier.VirtualTime, ring.VirtualTime)
	}
	// Same traffic, same learning (up to summation-order noise).
	if hier.GradSyncBytes != ring.GradSyncBytes {
		t.Fatalf("gradient traffic differs: %d vs %d", hier.GradSyncBytes, ring.GradSyncBytes)
	}
	if d := hier.Curve[0].TrainMAE - ring.Curve[0].TrainMAE; math.Abs(d) > 1e-9 {
		t.Fatalf("collective algorithm changed the numerics: ΔMAE %v", d)
	}
}

// TestFP16BucketsHalveTrafficAndStayAccurate verifies the compressed wire
// path: half the gradient bytes, a faster modeled epoch on a
// bandwidth-constrained fabric, replicas bitwise identical (checked inside
// Train), learning within quantization noise of fp64, and bit-reproducible
// across reruns.
func TestFP16BucketsHalveTrafficAndStayAccurate(t *testing.T) {
	fw := testSetup(t, 100, 6, 3)
	base := shard.Config{
		Replicas: 4, BatchSize: 3, Epochs: 2, LR: 0.01, Seed: 21, Net: slowFabric,
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
		BucketBytes: 512,
	}
	full, err := fw.train(base)
	if err != nil {
		t.Fatal(err)
	}
	halfCfg := base
	halfCfg.FP16 = true
	half, err := fw.train(halfCfg)
	if err != nil {
		t.Fatal(err)
	}

	// fp16 ships 2 bytes per element against the simulator's 8-byte fp64
	// wire: a 4x reduction (half of a real fp32 wire).
	if half.GradSyncBytes*4 != full.GradSyncBytes {
		t.Fatalf("fp16 wire bytes %d must be a quarter of %d", half.GradSyncBytes, full.GradSyncBytes)
	}
	if half.CommBytesSaved != full.GradSyncBytes-half.GradSyncBytes {
		t.Fatalf("CommBytesSaved %d, want %d", half.CommBytesSaved, full.GradSyncBytes-half.GradSyncBytes)
	}
	if full.CommBytesSaved != 0 {
		t.Fatalf("fp64 run must save nothing, got %d", full.CommBytesSaved)
	}
	if half.VirtualTime >= full.VirtualTime {
		t.Fatalf("fp16 epoch %v must beat fp64 %v on a bandwidth-bound fabric", half.VirtualTime, full.VirtualTime)
	}
	// Learning stays within quantization noise.
	for i := range full.Curve {
		if d := math.Abs(half.Curve[i].TrainMAE - full.Curve[i].TrainMAE); d > 0.05 {
			t.Fatalf("epoch %d: fp16 diverged from fp64 by %v", i, d)
		}
	}
	// Quantization is deterministic: reruns are bit-identical.
	again, err := fw.train(halfCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range half.Curve {
		if half.Curve[i] != again.Curve[i] {
			t.Fatalf("fp16 run not deterministic at epoch %d", i)
		}
	}

	// The flat baseline ships compressed too.
	flatCfg := base
	flatCfg.FP16 = true
	flatCfg.Algo = ddp.GradAlgoFlat
	flat, err := fw.train(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if flat.CommBytesSaved == 0 || flat.GradSyncBytes != half.GradSyncBytes {
		t.Fatalf("flat fp16 traffic %d (saved %d) inconsistent with bucketed %d", flat.GradSyncBytes, flat.CommBytesSaved, half.GradSyncBytes)
	}
}

func TestAutotuneCandidatesLadder(t *testing.T) {
	// Slingshot: 20 GB/s * 2 us = 40 KB knee, floored to 32 KiB.
	c := ddp.AutotuneCandidates(cluster.SlingshotModel(), 100<<20)
	if len(c) < 2 || c[0] != 32<<10 {
		t.Fatalf("Slingshot ladder starts at %d with %d rungs, want 32768 start", c[0], len(c))
	}
	if c[len(c)-1] != 100<<20 {
		t.Fatal("ladder must end at the full gradient size")
	}
	for i := 1; i < len(c)-1; i++ {
		if c[i] != 2*c[i-1] {
			t.Fatalf("ladder must double: %v", c)
		}
	}
	if len(c) > 8 {
		t.Fatalf("ladder too long: %d", len(c))
	}
	// A gradient smaller than the knee gets a single candidate.
	if c := ddp.AutotuneCandidates(cluster.SlingshotModel(), 1000); len(c) != 1 || c[0] != 1000 {
		t.Fatalf("tiny gradient ladder %v", c)
	}
}

// TestAutotunerLocksACandidate verifies the first-epoch sweep: the run ends
// on a ladder candidate, reports its bucket count, stays replica-identical
// (checked inside Train), and — with a modeled compute cost — makes the
// same choice on every rerun.
func TestAutotunerLocksACandidate(t *testing.T) {
	fw := testSetup(t, 120, 6, 3)
	paramBytes := nn.ParameterBytes(fw.model(1))
	cfg := shard.Config{
		Replicas: 4, BatchSize: 2, Epochs: 2, LR: 0.01, Seed: 23, Net: slowFabric,
		ComputeCost:     func(int) time.Duration { return 2 * time.Millisecond },
		AutoTuneBuckets: true,
	}
	res, err := fw.train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	candidates := ddp.AutotuneCandidates(slowFabric, paramBytes)
	found := false
	for _, c := range candidates {
		if res.GradBucketBytes == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen bucket size %d not in candidate ladder %v", res.GradBucketBytes, candidates)
	}
	if res.GradBuckets < 1 {
		t.Fatalf("bucket count %d", res.GradBuckets)
	}

	again, err := fw.train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.GradBucketBytes != res.GradBucketBytes {
		t.Fatalf("autotuner not reproducible: %d vs %d", again.GradBucketBytes, res.GradBucketBytes)
	}
	for i := range res.Curve {
		if res.Curve[i] != again.Curve[i] {
			t.Fatalf("autotuned run not deterministic at epoch %d", i)
		}
	}

	// Without autotuning the report echoes the configured cap.
	fixed := cfg
	fixed.AutoTuneBuckets = false
	fixed.BucketBytes = 2048
	fres, err := fw.train(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if fres.GradBucketBytes != 2048 {
		t.Fatalf("fixed run reports bucket bytes %d, want 2048", fres.GradBucketBytes)
	}
}
