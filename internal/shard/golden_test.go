package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/graph"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// flatWorldGolden is one row of testdata/flat_world_goldens.jsonl: a flat
// (unsharded) data-parallel configuration and what the retired ddp.Train
// loop produced for it at commit c7dd70a, the last one that had that loop.
// The rows cover W in {1,2,3,4} x {ring, flat, hierarchical 2x2} x fp16 x
// autotune crossed at the default batch feed, sampler x data path x prefetch
// crossed at the default sync (every W) and under the flat algorithm (W=2),
// everything-on rows at W in {3,4}, and a tight ClipNorm wherever both old
// loops clipped at the same point (all but the flat algorithm with peers).
// Curve values are float64 bit patterns; clocks are nanoseconds.
type flatWorldGolden struct {
	W        int      `json:"w"`
	Algo     string   `json:"algo"`
	FP16     bool     `json:"fp16"`
	AutoTune bool     `json:"autotune"`
	Sampler  string   `json:"sampler"`
	Path     string   `json:"path"`
	Prefetch bool     `json:"prefetch"`
	Clip     float64  `json:"clip"`
	Curve    []string `json:"curve"`
	VT       int64    `json:"vt_ns"`
	Comm     int64    `json:"comm_ns"`
	Hidden   int64    `json:"hidden_ns"`
	Bytes    int64    `json:"grad_bytes"`
	Buckets  int      `json:"buckets"`
	Steps    int      `json:"steps"`
}

// TestFlatWorldMatchesRetiredDDPLoop is the characterization contract of the
// trainer merge: at Shards == 1 the grid loop reproduces every recorded row
// of the retired flat-world loop bitwise — curve, virtual clock, exposed and
// hidden communication, gradient traffic, bucket and step counts.
func TestFlatWorldMatchesRetiredDDPLoop(t *testing.T) {
	const entries, nodes, horizon = 56, 6, 3
	g, err := graph.RoadNetwork(3, nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	data, err := batching.NewIndexDataset(tensor.Randn(tensor.NewRNG(5), entries, nodes, 1), horizon, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 2, 1, 8, horizon)
	}
	samplers := map[string]ddp.SamplerKind{"global": ddp.GlobalShuffle, "local": ddp.LocalShuffle, "batch": ddp.BatchShuffle}
	algos := map[string]ddp.GradAlgo{"ring": ddp.GradAlgoRing, "flat": ddp.GradAlgoFlat, "hier": ddp.GradAlgoHierarchical}

	f, err := os.Open("testdata/flat_world_goldens.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := 0
	for sc := bufio.NewScanner(f); sc.Scan(); rows++ {
		var row flatWorldGolden
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v", rows, err)
		}
		cfg := Config{
			Shards: 1, Replicas: row.W, BatchSize: 3, Epochs: 2, LR: 0.01, Seed: 17,
			ClipNorm: row.Clip, Sampler: samplers[row.Sampler],
			Net:  cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
			Algo: algos[row.Algo], FP16: row.FP16, AutoTuneBuckets: row.AutoTune,
			Prefetch:     row.Prefetch,
			ComputeCost:  func(int) time.Duration { return 2 * time.Millisecond },
			AssembleCost: func(items int) time.Duration { return time.Duration(items) * 100 * time.Microsecond },
		}
		if !row.AutoTune {
			cfg.BucketBytes = 1024
		}
		if row.Algo == "hier" {
			cfg.Topology = cluster.Topology{Nodes: 2, GPUsPerNode: 2}
		}
		switch row.Path {
		case "store":
			cfg.Feed = PartitionedStore{}
		case "remote":
			cfg.Feed = RemoteFetch{}
		}
		name := fmt.Sprintf("row %d (W=%d %s fp16=%v autotune=%v %s %s prefetch=%v clip=%v)",
			rows, row.W, row.Algo, row.FP16, row.AutoTune, row.Sampler, row.Path, row.Prefetch, row.Clip)
		res, err := Train(data, split, g, supports, factory, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var curve []string
		for _, rec := range res.Curve {
			curve = append(curve, fmt.Sprintf("%016x", math.Float64bits(rec.TrainMAE)), fmt.Sprintf("%016x", math.Float64bits(rec.ValMAE)))
		}
		if fmt.Sprint(curve) != fmt.Sprint(row.Curve) {
			t.Errorf("%s: curve bits %v, recorded %v", name, curve, row.Curve)
		}
		got := [6]int64{int64(res.VirtualTime), int64(res.CommTime), int64(res.CommHiddenTime), res.GradSyncBytes, int64(res.GradBuckets), int64(res.Steps)}
		want := [6]int64{row.VT, row.Comm, row.Hidden, row.Bytes, int64(row.Buckets), int64(row.Steps)}
		if got != want {
			t.Errorf("%s: [virtual comm hidden gradBytes buckets steps] = %v, recorded %v", name, got, want)
		}
	}
	if rows < 100 {
		t.Fatalf("only %d golden rows read", rows)
	}
}
