package core

import (
	"math"
	"testing"

	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/shard"
)

// spatialCfg returns a small measured-mode DistIndex config.
func spatialCfg(workers, shards int) Config {
	meta, _ := dataset.ByName("Chickenpox-Hungary")
	return Config{
		Config: shard.Config{
			Replicas:  workers,
			BatchSize: 4,
			Epochs:    1,
			Seed:      3,
			Shards:    shards,
		},
		Meta:     meta,
		Scale:    0.4,
		Model:    ModelPGTDCRNN,
		Strategy: DistIndex,
		Hidden:   8,
		K:        1,
	}
}

// TestSpatialShardingMatchesUnsharded: the hybrid grid reproduces the
// unsharded DistIndex run's accuracy curve within fp64 reassociation
// tolerance, at every shard count, with and without DDP replicas.
func TestSpatialShardingMatchesUnsharded(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := spatialCfg(workers, 1)
		cfg.Shards = 0
		ref, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			rep, err := Run(spatialCfg(workers, shards))
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if rep.SpatialShards != shards {
				t.Fatalf("workers=%d shards=%d: report says %d shards", workers, shards, rep.SpatialShards)
			}
			if rep.Workers != workers*shards {
				t.Fatalf("workers=%d shards=%d: grid size %d", workers, shards, rep.Workers)
			}
			if rep.HaloBytes == 0 || rep.HaloTime == 0 {
				t.Errorf("workers=%d shards=%d: halo accounting empty (%d bytes, %v)", workers, shards, rep.HaloBytes, rep.HaloTime)
			}
			if rep.EdgeCut <= 0 {
				t.Errorf("workers=%d shards=%d: edge cut %d", workers, shards, rep.EdgeCut)
			}
			for i := range rep.Curve {
				if d := math.Abs(rep.Curve[i].ValMAE - ref.Curve[i].ValMAE); d > 1e-9*math.Max(1, math.Abs(ref.Curve[i].ValMAE)) {
					t.Errorf("workers=%d shards=%d epoch %d: val MAE %v vs unsharded %v", workers, shards, i, rep.Curve[i].ValMAE, ref.Curve[i].ValMAE)
				}
			}
		}
	}
}

// TestSpatialShardingScalesPerWorkerMemory: the per-worker node-feature
// footprint follows ~N/P — doubling the shard count roughly halves the
// tracked data share — with the halo slab accounted under its own label
// (visible as PerWorkerBytes staying above the bare data share).
func TestSpatialShardingScalesPerWorkerMemory(t *testing.T) {
	shares := map[int]int64{}
	for _, shards := range []int{1, 2, 4} {
		cfg := spatialCfg(1, shards)
		if shards == 1 {
			cfg.Shards = 0
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PerWorkerBytes <= 0 {
			t.Fatalf("shards=%d: PerWorkerBytes %d", shards, rep.PerWorkerBytes)
		}
		// Recover the data share: the retained copy scales with the largest
		// owned block, which the balanced partitioner caps at ceil(N/P).
		shares[shards] = rep.PerWorkerBytes
		maxShare := rep.RetainedDataBytes
		if shards > 1 {
			nodes := cfg.Meta.Scaled(cfg.Scale).Nodes
			maxOwn := (nodes + shards - 1) / shards
			maxShare = rep.RetainedDataBytes * int64(maxOwn) / int64(nodes)
		}
		if rep.PerWorkerBytes < maxShare {
			t.Fatalf("shards=%d: per-worker bytes %d below its own data share %d", shards, rep.PerWorkerBytes, maxShare)
		}
	}
	// ~N/P: each doubling of shards should at least substantially shrink
	// the per-worker footprint (model replica + halo keep it above exactly
	// half).
	if !(shares[2] < shares[1] && shares[4] < shares[2]) {
		t.Fatalf("per-worker footprint not decreasing with shards: %v", shares)
	}
	if float64(shares[4]) > 0.75*float64(shares[1]) {
		t.Fatalf("4-way sharding shrank per-worker footprint only to %d of %d", shares[4], shares[1])
	}

	// Tracker consistency at equal worker counts: a 4-shard spatial grid
	// holds ~one data copy spread in N/P shares, while 4 DistIndex replicas
	// hold 4 full copies — the tracked peak must reflect that, not charge
	// worker 0 a full copy on top of the peers' shares.
	replicated, err := Run(spatialCfg(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(spatialCfg(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	// At this toy scale the per-worker replica/batch/halo overheads are a
	// large constant next to the data, so demand a clear win rather than
	// the asymptotic 1/4.
	if float64(sharded.PeakSystemBytes) >= 0.6*float64(replicated.PeakSystemBytes) {
		t.Fatalf("4-shard peak %d not well below 4-replica peak %d", sharded.PeakSystemBytes, replicated.PeakSystemBytes)
	}
}

// TestSpatialShardingRejectsUnsupported: ST-LLM (full spatial attention) and
// non-DistIndex strategies cannot shard.
func TestSpatialShardingRejectsUnsupported(t *testing.T) {
	cfg := spatialCfg(1, 2)
	cfg.Model = ModelSTLLM
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for sharded ST-LLM")
	}
	cfg = spatialCfg(1, 2)
	cfg.Strategy = BaselineDDP
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for sharded baseline DDP")
	}
	// An explicit collective algorithm has nothing to select under the
	// fixed two-stage grouped sync and must be rejected, not silently
	// ignored.
	cfg = spatialCfg(1, 2)
	cfg.Algo = ddp.GradAlgoHierarchical
	cfg.Topology = cluster.Topology{Nodes: 1, GPUsPerNode: 2}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for sharded explicit GradAlgo")
	}
}

// TestSpatialGradStackComposes: fp16 compression, bucket caps and the
// first-epoch autotuner now ride the hybrid grid's bucketed two-stage sync.
func TestSpatialGradStackComposes(t *testing.T) {
	cfg := spatialCfg(2, 2)
	cfg.FP16 = true
	cfg.AutoTuneBuckets = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommBytesSaved <= 0 {
		t.Fatalf("fp16 hybrid run saved no gradient traffic: %d", rep.CommBytesSaved)
	}
	if rep.GradBucketBytes <= 0 {
		t.Fatalf("autotuned hybrid run reported no bucket size: %d", rep.GradBucketBytes)
	}
	if rep.GradBuckets < 1 {
		t.Fatalf("hybrid run reported %d gradient buckets", rep.GradBuckets)
	}
}
