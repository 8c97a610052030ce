package pgti

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestDatasetsList(t *testing.T) {
	ds := Datasets()
	if len(ds) != 6 || ds[0] != "Chickenpox-Hungary" || ds[5] != "PeMS" {
		t.Fatalf("Datasets() = %v", ds)
	}
}

// run is what the retired one-shot Run(Config) did, on options: Fit, then
// Eval, with an out-of-memory run reported (Report.OOM) rather than failed.
func run(datasetName string, opts ...Option) (*Report, error) {
	exp, err := NewExperiment(datasetName, opts...)
	if err != nil {
		return nil, err
	}
	rep, err := exp.Fit(context.Background())
	if err == nil {
		rep, err = exp.Eval()
	}
	var oom *OOMError
	if errors.As(err, &oom) {
		return rep, nil
	}
	return rep, err
}

func TestRunUnknownDataset(t *testing.T) {
	if _, err := run("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestRunQuickstartShape(t *testing.T) {
	rep, err := run("Chickenpox-Hungary",
		WithStrategy(StrategyIndex),
		WithBatchSize(4),
		WithEpochs(2),
		WithHidden(8),
		WithDiffusionSteps(1),
		WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dataset != "Chickenpox-Hungary" || len(rep.Curve) != 2 {
		t.Fatalf("report malformed: %+v", rep)
	}
	if rep.OOM || rep.Curve.BestVal() <= 0 || math.IsNaN(rep.Curve.BestVal()) {
		t.Fatalf("bad result: %+v", rep)
	}
	if rep.RetainedDataBytes <= 0 || rep.PeakSystemBytes < rep.RetainedDataBytes {
		t.Fatalf("memory accounting wrong: retained %d peak %d", rep.RetainedDataBytes, rep.PeakSystemBytes)
	}
}

func TestRunMemoryCapProducesOOM(t *testing.T) {
	rep, err := run("PeMS-BAY",
		WithScale(0.012),
		WithStrategy(StrategyBaseline),
		WithBatchSize(4),
		WithEpochs(1),
		WithHidden(8),
		WithDiffusionSteps(1),
		WithSeed(2),
		WithMemoryCaps(0.001, 0)) // 1 MiB: below the standard pipeline's needs
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OOM || rep.OOMError == "" {
		t.Fatalf("expected OOM report, got %+v", rep)
	}
}

func TestRunDistributedFacade(t *testing.T) {
	rep, err := run("PeMS-BAY",
		WithScale(0.012),
		WithStrategy(StrategyDistIndex),
		WithWorkers(2),
		WithBatchSize(4),
		WithEpochs(1),
		WithHidden(8),
		WithDiffusionSteps(1),
		WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 2 || rep.GlobalBatch != 8 || rep.GradSyncBytes == 0 {
		t.Fatalf("distributed report malformed: %+v", rep)
	}
	if rep.GradBuckets < 1 || rep.GradBucketBytes <= 0 {
		t.Fatalf("bucket accounting missing: %+v", rep)
	}
}

// TestRunCollectiveStackFacade drives the public collective-stack knobs:
// hierarchical AllReduce over a 2x2 topology with fp16 buckets and the
// bucket-size autotuner, end to end through the public options.
func TestRunCollectiveStackFacade(t *testing.T) {
	rep, err := run("PeMS-BAY",
		WithScale(0.012),
		WithStrategy(StrategyDistIndex),
		WithWorkers(4),
		WithBatchSize(2),
		WithEpochs(1),
		WithHidden(8),
		WithDiffusionSteps(1),
		WithSeed(3),
		WithGradStack(GradStack{
			Algo:     GradAlgoHierarchical,
			Topology: Topology{Nodes: 2, GPUsPerNode: 2},
			FP16:     true,
			AutoTune: true,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommBytesSaved == 0 {
		t.Fatal("fp16 run must report saved communication bytes")
	}
	if rep.GradBucketBytes <= 0 || rep.GradBuckets < 1 {
		t.Fatalf("autotuned bucket accounting missing: buckets=%d bytes=%d", rep.GradBuckets, rep.GradBucketBytes)
	}
	if rep.GradSyncBytes == 0 || rep.VirtualTime <= 0 {
		t.Fatalf("collective-stack report malformed: %+v", rep)
	}
}

func TestFormatBytes(t *testing.T) {
	if FormatBytes(1<<30) != "1.00 GiB" {
		t.Fatalf("FormatBytes: %s", FormatBytes(1<<30))
	}
}
