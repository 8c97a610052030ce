package pgti

import (
	"math"
	"testing"
)

func TestEstimatePolarisTable4Anchors(t *testing.T) {
	idx, err := EstimatePolaris("PeMS", WithStrategy(StrategyIndex), WithEpochs(30))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idx.TotalMinutes-333.58)/333.58 > 0.05 {
		t.Fatalf("index estimate %.1f min, paper 333.58", idx.TotalMinutes)
	}
	gidx, err := EstimatePolaris("PeMS", WithStrategy(StrategyGPUIndex), WithEpochs(30))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gidx.TotalMinutes-290.65)/290.65 > 0.05 {
		t.Fatalf("gpu-index estimate %.1f min, paper 290.65", gidx.TotalMinutes)
	}
	if gidx.PeakNodeGiB >= idx.PeakNodeGiB || gidx.PeakGPUGiB <= idx.PeakGPUGiB {
		t.Fatal("GPU-index must trade CPU memory for GPU memory")
	}
}

func TestEstimatePolarisBaselineOOMsOnPeMS(t *testing.T) {
	base, err := EstimatePolaris("PeMS", WithStrategy(StrategyBaseline), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if !base.OOM || base.OOMDetail == "" {
		t.Fatalf("standard preprocessing of PeMS must OOM a 512 GB node: %+v", base)
	}
	// All-LA fits, for both model variants with their Table 2 peaks.
	la, err := EstimatePolaris("PeMS-All-LA", WithStrategy(StrategyBaseline), WithModel(ModelDCRNN), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if la.OOM {
		t.Fatalf("All-LA must fit: %s", la.OOMDetail)
	}
	if math.Abs(la.PeakNodeGiB-371.24) > 5 {
		t.Fatalf("DCRNN All-LA node peak %.1f, paper 371.25", la.PeakNodeGiB)
	}
	laPGT, err := EstimatePolaris("PeMS-All-LA", WithStrategy(StrategyBaseline), WithModel(ModelPGTDCRNN), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(laPGT.PeakNodeGiB-259.46) > 5 {
		t.Fatalf("PGT-DCRNN All-LA node peak %.1f, paper 259.84", laPGT.PeakNodeGiB)
	}
}

func TestEstimatePolarisFig7Ratios(t *testing.T) {
	ratio := func(workers int) float64 {
		di, err := EstimatePolaris("PeMS", WithStrategy(StrategyDistIndex), WithWorkers(workers), WithEpochs(30))
		if err != nil {
			t.Fatal(err)
		}
		dd, err := EstimatePolaris("PeMS", WithStrategy(StrategyBaselineDDP), WithWorkers(workers), WithEpochs(30))
		if err != nil {
			t.Fatal(err)
		}
		return dd.TotalMinutes / di.TotalMinutes
	}
	if r := ratio(4); math.Abs(r-2.16)/2.16 > 0.10 {
		t.Fatalf("ratio at 4 GPUs %.2f, paper 2.16", r)
	}
	if r := ratio(128); math.Abs(r-11.78)/11.78 > 0.15 {
		t.Fatalf("ratio at 128 GPUs %.2f, paper 11.78", r)
	}
}

func TestEstimatePolarisGenDistIndex(t *testing.T) {
	est, err := EstimatePolaris("PeMS", WithStrategy(StrategyGenDistIndex), WithWorkers(4), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if est.OOM {
		t.Fatal("partitioned layout must fit")
	}
	// Paper Fig. 9: index memory ~53 GB at 4 workers.
	if math.Abs(est.PeakNodeGiB-55.1) > 5 {
		t.Fatalf("gen-dist-index node peak %.1f, expected ~55", est.PeakNodeGiB)
	}
	full, err := EstimatePolaris("PeMS", WithStrategy(StrategyDistIndex), WithWorkers(4), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if est.PeakNodeGiB >= full.PeakNodeGiB {
		t.Fatal("partitioned layout must use less node memory than full replication")
	}
}

func TestEstimatePolarisErrors(t *testing.T) {
	if _, err := EstimatePolaris("nope"); err == nil {
		t.Fatal("expected unknown-dataset error")
	}
}

func TestEstimatePolarisDefaults(t *testing.T) {
	est, err := EstimatePolaris("PeMS-BAY", WithStrategy(StrategyIndex))
	if err != nil {
		t.Fatal(err)
	}
	if est.Epochs != 30 || est.Workers != 1 {
		t.Fatalf("defaults wrong: %+v", est)
	}
	if est.TotalMinutes <= 0 || est.PreprocessSeconds <= 0 {
		t.Fatal("estimate fields missing")
	}
}
