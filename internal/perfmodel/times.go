package perfmodel

import (
	"math"
	"time"

	"pgti/internal/dataset"
	"pgti/internal/tensor"
)

// CostModel composes the calibrated constants into run-time estimates.
// I/O jitter is deterministic per seed (set Jitter to 0 for exact tests).
type CostModel struct {
	rng *tensor.RNG
	// Jitter scales the Lustre I/O jitter band (1 = paper-observed, 0 =
	// deterministic).
	Jitter float64
}

// NewDeterministic returns a jitter-free cost model.
func NewDeterministic() *CostModel {
	return &CostModel{rng: tensor.NewRNG(0), Jitter: 0}
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// BatchComputeTime returns the GPU compute time of one optimizer step
// (forward + backward) plus the host-side per-batch overhead.
func (c *CostModel) BatchComputeTime(d DCGRUDims, batch int) time.Duration {
	return seconds(d.StepFLOPs(batch)/EffectiveGPUFLOPS + PerBatchHostOverhead)
}

// gpuComputeOnly is the kernel time without host overhead (used for the
// validation-cost fraction).
func (c *CostModel) gpuComputeOnly(d DCGRUDims, batch int) time.Duration {
	return seconds(d.StepFLOPs(batch) / EffectiveGPUFLOPS)
}

// BatchH2DTime returns the per-step pageable host-to-device transfer time
// for a collated batch (paid by every non-GPU-resident strategy).
func (c *CostModel) BatchH2DTime(bytes int64) time.Duration {
	return seconds(float64(bytes) / PageableH2DBandwidth)
}

// BulkStageTime returns the one-time pinned staging copy of
// GPU-index-batching.
func (c *CostModel) BulkStageTime(bytes int64) time.Duration {
	return seconds(float64(bytes) / BulkH2DBandwidth)
}

// ReadTime returns the parallel-FS read time for bytes, with the paper's
// observed jitter band applied.
func (c *CostModel) ReadTime(bytes int64) time.Duration {
	base := float64(bytes) / LustreReadBandwidth
	if c.Jitter > 0 {
		base *= 1 + c.Jitter*LustreJitterFrac*(2*c.rng.Float64()-1)
	}
	return seconds(base)
}

// IndexPreprocessTime returns the preprocessing time of (GPU-)index-
// batching: read the raw file, then two streaming passes (time-of-day
// augmentation + standardization) on the host or, for the GPU variant,
// one bulk PCIe staging copy followed by HBM-rate passes.
func (c *CostModel) IndexPreprocessTime(meta dataset.Meta, gpuResident bool) time.Duration {
	t := c.ReadTime(meta.RawBytes())
	if gpuResident {
		t += c.BulkStageTime(meta.RawBytes())
		t += seconds(2 * float64(meta.AugmentedBytes()) / GPUMemBandwidth)
	} else {
		t += seconds(2 * float64(meta.AugmentedBytes()) / HostMemBandwidth)
	}
	return t
}

// DDPPreprocessTime returns baseline DDP's distributed preprocessing time:
// the Dask scheduler scatters one object per time entry, a per-item cost
// that parallelism does not amortize (matching the flat ~305 s the paper
// reports for PeMS).
func (c *CostModel) DDPPreprocessTime(meta dataset.Meta) time.Duration {
	return seconds(float64(meta.Entries) * DaskDispatchPerItem)
}

// DaskSetupTime returns cluster spin-up cost.
func (c *CostModel) DaskSetupTime(workers int) time.Duration {
	return seconds(DaskSetupBase + DaskSetupPerWorker*float64(workers))
}

// stepSyncTime is the per-step DDP synchronization overhead (gradient
// bucket launch + stragglers) on top of the ring transfer itself.
func stepSyncTime(workers int) time.Duration {
	if workers <= 1 {
		return 0
	}
	return seconds(SyncBase + SyncPerLog2Worker*math.Log2(float64(workers)))
}

// ringTime is the gradient ring-AllReduce transfer time.
func ringTime(gradBytes int64, workers int) time.Duration {
	if workers <= 1 {
		return 0
	}
	per := float64(gradBytes) / float64(workers) / 20e9
	return seconds(2 * float64(workers-1) * per)
}

// TrainSnapshots returns the training-split snapshot count (70%).
func TrainSnapshots(meta dataset.Meta) int {
	return int(math.Round(float64(meta.Snapshots()) * 0.70))
}

// StepsPerWorker returns optimizer steps per worker per epoch with the
// paper's fixed-dataset scaling (global batch = batch x workers).
func StepsPerWorker(meta dataset.Meta, batch, workers int) int {
	g := batch * workers
	return (TrainSnapshots(meta) + g - 1) / g
}

// RunEstimate is a modeled end-to-end run.
type RunEstimate struct {
	Workers     int
	GlobalBatch int
	Preprocess  time.Duration
	Setup       time.Duration
	Train       time.Duration // compute portion of the training loop
	Comm        time.Duration // communication portion (fetches + AllReduce)
	EpochTime   time.Duration // (Train+Comm)/epochs
	Total       time.Duration
}

// compose fills the derived fields.
func compose(e RunEstimate, epochs int) RunEstimate {
	if epochs > 0 {
		e.EpochTime = (e.Train + e.Comm) / time.Duration(epochs)
	}
	e.Total = e.Preprocess + e.Setup + e.Train + e.Comm
	return e
}

// SingleGPURun estimates a single-GPU run with index-batching
// (gpuResident=false) or GPU-index-batching (gpuResident=true).
func (c *CostModel) SingleGPURun(d DCGRUDims, meta dataset.Meta, batch, epochs int, gpuResident bool) RunEstimate {
	steps := StepsPerWorker(meta, batch, 1)
	step := c.BatchComputeTime(d, batch)
	var comm time.Duration
	if gpuResident {
		comm = c.BulkStageTime(meta.AugmentedBytes())
	} else {
		comm = time.Duration(steps*epochs) * c.BatchH2DTime(BatchBytes(batch, meta.Horizon, meta.Nodes, meta.Features()))
	}
	val := time.Duration(float64(time.Duration(steps)*c.gpuComputeOnly(d, batch)) * ValidationFrac)
	train := time.Duration(epochs) * (time.Duration(steps)*step + val)
	return compose(RunEstimate{
		Workers:     1,
		GlobalBatch: batch,
		Preprocess:  c.IndexPreprocessTime(meta, gpuResident),
		Train:       train,
		Comm:        comm,
	}, epochs)
}

// BaselineSingleGPURun estimates the original-DCRNN single-GPU run
// (Table 2): the *PGT-DCRNN* cost scaled by the measured end-to-end
// slowdown multiplier (which already folds in the deeper encoder-decoder
// and the copy-heavy dataloader). Pass the PGT-DCRNN dims, not DCRNNDims —
// the multiplier must not be stacked on top of a larger FLOP count.
func (c *CostModel) BaselineSingleGPURun(pgtDims DCGRUDims, meta dataset.Meta, batch, epochs int) RunEstimate {
	pgt := c.SingleGPURun(pgtDims, meta, batch, epochs, false)
	pgt.Train = time.Duration(float64(pgt.Train) * DCRNNSlowdown)
	return compose(pgt, epochs)
}

// DistIndexRun estimates distributed-index-batching (§4.2): every worker
// holds the full dataset GPU-resident, shuffles globally without
// communication, and only gradient AllReduce crosses the fabric.
func (c *CostModel) DistIndexRun(d DCGRUDims, meta dataset.Meta, batch, workers, epochs int) RunEstimate {
	steps := StepsPerWorker(meta, batch, workers)
	step := c.BatchComputeTime(d, batch)
	perStepComm := ringTime(d.GradBytes(), workers) + stepSyncTime(workers)
	val := time.Duration(float64(time.Duration(steps)*c.gpuComputeOnly(d, batch)) * ValidationFrac)
	train := time.Duration(epochs) * (time.Duration(steps)*step + val)
	comm := time.Duration(epochs) * (time.Duration(steps)*perStepComm + seconds(EpochFixedOverhead))
	comm += c.BulkStageTime(meta.AugmentedBytes()) // one staging copy
	return compose(RunEstimate{
		Workers:     workers,
		GlobalBatch: batch * workers,
		Preprocess:  c.IndexPreprocessTime(meta, true),
		Setup:       c.DaskSetupTime(workers),
		Train:       train,
		Comm:        comm,
	}, epochs)
}

// BaselineDDPRun estimates the paper's baseline DDP: standard batching with
// data distributed across workers and fetched on demand per batch. Each
// worker pays per-batch fetch + pageable H2D; the aggregate fetch volume is
// bounded below by the non-scaling Dask service bandwidth.
func (c *CostModel) BaselineDDPRun(d DCGRUDims, meta dataset.Meta, batch, workers, epochs int) RunEstimate {
	steps := StepsPerWorker(meta, batch, workers)
	batchBytes := BatchBytes(batch, meta.Horizon, meta.Nodes, meta.Features())
	step := c.BatchComputeTime(d, batch) + c.BatchH2DTime(batchBytes)
	perStepComm := ringTime(d.GradBytes(), workers) + stepSyncTime(workers)

	// Fetch cost per epoch: per-worker pipeline vs shared service floor.
	rowBytes := int64(meta.Nodes) * int64(meta.Features()) * 8
	epochVolume := int64(TrainSnapshots(meta)) * int64(2*meta.Horizon) * rowBytes
	perWorkerFetch := seconds(float64(steps) * float64(batchBytes) / PerWorkerFetchBandwidth)
	serviceFloor := seconds(float64(epochVolume) / DaskServiceBandwidth)
	fetch := perWorkerFetch
	if serviceFloor > fetch {
		fetch = serviceFloor
	}

	val := time.Duration(float64(time.Duration(steps)*c.gpuComputeOnly(d, batch)) * ValidationFrac)
	train := time.Duration(epochs) * (time.Duration(steps)*step + val)
	comm := time.Duration(epochs) * (fetch + time.Duration(steps)*perStepComm + seconds(EpochFixedOverhead))
	return compose(RunEstimate{
		Workers:     workers,
		GlobalBatch: batch * workers,
		Preprocess:  c.DDPPreprocessTime(meta),
		Setup:       c.DaskSetupTime(workers),
		Train:       train,
		Comm:        comm,
	}, epochs)
}

// GenDistIndexEpoch estimates one epoch of generalized-distributed-index-
// batching (§5.4): data partitioned across workers (larger-than-memory
// regime), batch-level shuffling, index-based fetches that move each data
// row once instead of 2*horizon times.
func (c *CostModel) GenDistIndexEpoch(d DCGRUDims, meta dataset.Meta, batch, workers int) RunEstimate {
	steps := StepsPerWorker(meta, batch, workers)
	rowBytes := int64(meta.Nodes) * int64(meta.Features()) * 8
	// An index-batched fetch of a contiguous batch needs batch+2h-1 rows.
	fetchBytes := int64(batch+2*meta.Horizon-1) * rowBytes
	step := c.BatchComputeTime(d, batch) + c.BatchH2DTime(fetchBytes)
	perWorkerFetch := seconds(float64(steps) * float64(fetchBytes) / PerWorkerFetchBandwidth)
	epochVolume := int64(steps*workers) * fetchBytes
	serviceFloor := seconds(float64(epochVolume) / DaskServiceBandwidth)
	fetch := perWorkerFetch
	if serviceFloor > fetch {
		fetch = serviceFloor
	}
	perStepComm := ringTime(d.GradBytes(), workers) + stepSyncTime(workers)
	train := time.Duration(steps) * step
	comm := fetch + time.Duration(steps)*perStepComm + seconds(EpochFixedOverhead)
	return compose(RunEstimate{
		Workers:     workers,
		GlobalBatch: batch * workers,
		Train:       train,
		Comm:        comm,
	}, 1)
}

// BaselineBatchShuffleEpoch estimates one epoch of the Fig. 9 baseline:
// DDP with fixed partitions and batch-level shuffling, still moving
// materialized (x, y) windows.
func (c *CostModel) BaselineBatchShuffleEpoch(d DCGRUDims, meta dataset.Meta, batch, workers int) RunEstimate {
	steps := StepsPerWorker(meta, batch, workers)
	batchBytes := BatchBytes(batch, meta.Horizon, meta.Nodes, meta.Features())
	step := c.BatchComputeTime(d, batch) + c.BatchH2DTime(batchBytes)
	perWorkerFetch := seconds(float64(steps) * float64(batchBytes) / PerWorkerFetchBandwidth)
	epochVolume := int64(TrainSnapshots(meta)) * int64(2*meta.Horizon) * rowBytesOf(meta)
	serviceFloor := seconds(float64(epochVolume) / DaskServiceBandwidth)
	fetch := perWorkerFetch
	if serviceFloor > fetch {
		fetch = serviceFloor
	}
	perStepComm := ringTime(d.GradBytes(), workers) + stepSyncTime(workers)
	train := time.Duration(steps) * step
	comm := fetch + time.Duration(steps)*perStepComm + seconds(EpochFixedOverhead)
	return compose(RunEstimate{
		Workers:     workers,
		GlobalBatch: batch * workers,
		Train:       train,
		Comm:        comm,
	}, 1)
}

func rowBytesOf(meta dataset.Meta) int64 {
	return int64(meta.Nodes) * int64(meta.Features()) * 8
}
