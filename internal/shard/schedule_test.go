package shard

import (
	"testing"
	"time"

	"pgti/internal/cluster"
	"pgti/internal/ddp"
)

// TestOneByRGridSyncsOnIntraLink: a 1xR grid's gradient sync is the
// two-stage collective with one-member replica groups, so when the whole
// world shares a node it is priced on the intra-node link and booked on its
// channel, under the bucketed and the flat schedule alike.
func TestOneByRGridSyncsOnIntraLink(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	intra := cluster.NVLinkModel()
	for _, algo := range []ddp.GradAlgo{ddp.GradAlgoRing, ddp.GradAlgoFlat} {
		res, err := Train(data, split, g, supports, pipelineModel, Config{
			Shards: 1, Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 5,
			Algo:        algo,
			BucketBytes: 1 << 30, // one bucket a step: its cost is the step's ring
			Net:         pipelineNet(),
			Topology:    cluster.Topology{Nodes: 1, GPUsPerNode: 2},
			ComputeCost: func(int) time.Duration { return 0 }, // every sync exposed
		})
		if err != nil {
			t.Fatalf("algo %v: %v", algo, err)
		}
		if res.Steps == 0 || res.GradSyncBytes%int64(res.Steps) != 0 {
			t.Fatalf("algo %v: %d steps, %d grad bytes", algo, res.Steps, res.GradSyncBytes)
		}
		perStep := intra.RingAllReduceTime(res.GradSyncBytes/int64(res.Steps), 2)
		if want := time.Duration(res.Steps) * perStep; res.CommTime+res.CommHiddenTime != want {
			t.Errorf("algo %v: grad sync cost %v, want %d steps x %v on the intra link", algo, res.CommTime+res.CommHiddenTime, res.Steps, perStep)
		}
		if res.CommExposedInter != 0 || res.CommExposedIntra != res.CommTime || res.CommTime == 0 {
			t.Errorf("algo %v: exposed intra %v, inter %v, comm %v; want it all on the intra channel", algo, res.CommExposedIntra, res.CommExposedInter, res.CommTime)
		}
	}
}
