package pgti

import (
	"fmt"
	"time"

	"pgti/internal/core"
	"pgti/internal/memsim"
	"pgti/internal/perfmodel"
)

// PolarisEstimate is a modeled full-scale run on the paper's platform
// (ALCF Polaris: 512 GB nodes, 4x A100-40GB, Slingshot-11): what a
// configuration would cost *before* committing node-hours. The model is
// calibrated on the paper's single-GPU measurements; the internal/perfmodel
// package doc anchors each constant, and README's "Three parallelism axes"
// describes the strategies and worker counts it prices.
type PolarisEstimate struct {
	Dataset  string
	Strategy Strategy
	Workers  int
	Epochs   int

	TotalMinutes      float64
	TrainMinutes      float64
	CommMinutes       float64
	PreprocessSeconds float64
	SetupSeconds      float64

	// PeakNodeGiB is the modeled per-node host-memory peak; PeakGPUGiB the
	// per-device peak.
	PeakNodeGiB float64
	PeakGPUGiB  float64

	// OOM reports whether the configuration exceeds a 512 GB node (the
	// paper's crashing configurations); OOMDetail says where.
	OOM       bool
	OOMDetail string
}

// EstimatePolaris models the named dataset under the given experiment
// options at full dataset scale on Polaris hardware, without running
// anything. It reads the strategy, model, worker count, batch size, epoch
// budget and hidden width; WithScale is ignored (estimates are full-scale).
// Workers defaults to 1, BatchSize to 32, Epochs to 30 (the paper's
// settings), Hidden to 64. Illegal option combinations are rejected with
// the same typed *InvalidConfigError NewExperiment returns.
func EstimatePolaris(datasetName string, opts ...Option) (*PolarisEstimate, error) {
	cfg, err := configure(datasetName, opts)
	if err != nil {
		return nil, err
	}
	meta := cfg.Meta
	workers := cfg.Replicas
	if workers < 1 {
		workers = 1
	}
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 32
	}
	epochs := cfg.Epochs
	if epochs < 1 {
		epochs = 30
	}
	hidden := cfg.Hidden
	if hidden < 1 {
		hidden = 64
	}
	c := perfmodel.NewDeterministic()
	dims := perfmodel.PGTDCRNNDims(meta.Nodes, meta.Nodes*(meta.NeighborsK+1))

	est := &PolarisEstimate{
		Dataset:  meta.Name,
		Strategy: cfg.Strategy,
		Workers:  workers,
		Epochs:   epochs,
	}
	gib := func(b int64) float64 { return float64(b) / float64(memsim.GiB) }
	nodeCap := int64(512) * memsim.GiB

	var run perfmodel.RunEstimate
	switch cfg.Strategy {
	case core.Baseline:
		run = c.BaselineSingleGPURun(dims, meta, batch, epochs)
		if cfg.Model == core.ModelPGTDCRNN {
			run = c.SingleGPURun(dims, meta, batch, epochs, false)
		}
		tr := memsim.NewTracker("node", nodeCap)
		if err := perfmodel.ReplayStages(tr, perfmodel.StandardPipelineStages(meta, cfg.Model == core.ModelDCRNN)); err != nil {
			est.OOM = true
			est.OOMDetail = err.Error()
		}
		est.PeakNodeGiB = gib(tr.Peak())
		est.PeakGPUGiB = gib(perfmodel.TrainingGPUBytes(meta, batch, hidden, cfg.Model == core.ModelDCRNN))
	case core.Index:
		run = c.SingleGPURun(dims, meta, batch, epochs, false)
		tr := memsim.NewTracker("node", nodeCap)
		if err := perfmodel.ReplayStages(tr, perfmodel.IndexPipelineStages(meta)); err != nil {
			est.OOM = true
			est.OOMDetail = err.Error()
		}
		est.PeakNodeGiB = gib(tr.Peak())
		est.PeakGPUGiB = gib(perfmodel.TrainingGPUBytes(meta, batch, hidden, false))
	case core.GPUIndex:
		run = c.SingleGPURun(dims, meta, batch, epochs, true)
		host, gpu := perfmodel.GPUIndexPipelineStages(meta, batch, hidden)
		trH := memsim.NewTracker("node", nodeCap)
		trG := memsim.NewTracker("gpu", 40*memsim.GiB)
		if err := perfmodel.ReplayStages(trH, host); err != nil {
			est.OOM = true
			est.OOMDetail = err.Error()
		}
		if err := perfmodel.ReplayStages(trG, gpu); err != nil {
			est.OOM = true
			est.OOMDetail = "GPU: " + err.Error()
		}
		est.PeakNodeGiB = gib(trH.Peak())
		est.PeakGPUGiB = gib(trG.Peak())
	case core.BaselineDDP:
		run = c.BaselineDDPRun(dims, meta, batch, workers, epochs)
		node := perfmodel.NodeBytes(perfmodel.BaselineDDPWorkerBytes(meta, batch, workers), workers)
		est.PeakNodeGiB = gib(node)
		est.PeakGPUGiB = gib(perfmodel.TrainingGPUBytes(meta, batch, hidden, false))
		if node > nodeCap {
			est.OOM = true
			est.OOMDetail = fmt.Sprintf("per-node footprint %.1f GiB exceeds 512 GiB", est.PeakNodeGiB)
		}
	case core.DistIndex:
		run = c.DistIndexRun(dims, meta, batch, workers, epochs)
		node := perfmodel.NodeBytes(perfmodel.DistIndexWorkerBytes(meta), workers)
		est.PeakNodeGiB = gib(node)
		h, g := perfmodel.GPUIndexPipelineStages(meta, batch, hidden)
		_ = h
		trG := memsim.NewTracker("gpu", 40*memsim.GiB)
		if err := perfmodel.ReplayStages(trG, g); err != nil {
			est.OOM = true
			est.OOMDetail = "GPU: " + err.Error()
		}
		est.PeakGPUGiB = gib(trG.Peak())
		if node > nodeCap {
			est.OOM = true
			est.OOMDetail = fmt.Sprintf("per-node footprint %.1f GiB exceeds 512 GiB", est.PeakNodeGiB)
		}
	case core.GenDistIndex:
		run = c.GenDistIndexEpoch(dims, meta, batch, workers)
		run.Train *= time.Duration(epochs)
		run.Comm *= time.Duration(epochs)
		run.Total = run.Preprocess + run.Setup + run.Train + run.Comm
		node := perfmodel.NodeBytes(perfmodel.GenDistIndexWorkerBytes(meta, workers), workers)
		est.PeakNodeGiB = gib(node)
		est.PeakGPUGiB = gib(perfmodel.TrainingGPUBytes(meta, batch, hidden, false))
	}

	est.TotalMinutes = run.Total.Minutes()
	est.TrainMinutes = run.Train.Minutes()
	est.CommMinutes = run.Comm.Minutes()
	est.PreprocessSeconds = run.Preprocess.Seconds()
	est.SetupSeconds = run.Setup.Seconds()
	return est, nil
}
