package experiments

import (
	"fmt"

	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/perfmodel"
	"pgti/internal/shard"
)

// fig7GPUCounts is the paper's scaling-study sweep.
var fig7GPUCounts = []int{4, 8, 16, 32, 64, 128}

// Fig7 regenerates the PeMS scaling study: baseline DDP vs
// distributed-index-batching, 4-128 GPUs, with compute/communication split.
func Fig7(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Fig. 7: PeMS scaling study, DDP vs distributed-index-batching (modeled full scale)")
	c := perfmodel.NewDeterministic()
	pems := dataset.PeMS
	dims := perfmodel.PGTDCRNNDims(pems.Nodes, pems.Nodes*(pems.NeighborsK+1))
	single := c.SingleGPURun(dims, pems, 32, 30, false)
	linearRef := single.Total.Minutes()

	row(w, fmt.Sprintf("%5s | %10s %10s %10s | %10s %10s %10s | %7s %8s",
		"GPUs", "DDP total", "compute", "comm", "DIdx total", "compute", "comm", "ratio", "linear"))
	for _, p := range fig7GPUCounts {
		ddpEst := c.BaselineDDPRun(dims, pems, 32, p, 30)
		di := c.DistIndexRun(dims, pems, 32, p, 30)
		row(w, fmt.Sprintf("%5d | %9.1fm %9.1fm %9.1fm | %9.1fm %9.1fm %9.1fm | %6.2fx %7.1fm",
			p, ddpEst.Total.Minutes(), (ddpEst.Train+ddpEst.Preprocess+ddpEst.Setup).Minutes(), ddpEst.Comm.Minutes(),
			di.Total.Minutes(), (di.Train+di.Preprocess+di.Setup).Minutes(), di.Comm.Minutes(),
			ddpEst.Total.Minutes()/di.Total.Minutes(), linearRef/float64(p)))
	}
	di128 := c.DistIndexRun(dims, pems, 32, 128, 30)
	ddp128 := c.BaselineDDPRun(dims, pems, 32, 128, 30)
	fmt.Fprintf(w, "paper anchors: 2.16x at 4 GPUs, 11.78x at 128 GPUs; total speedup 79.41x, training-only 115.49x\n")
	fmt.Fprintf(w, "modeled:       %.2fx at 4 GPUs, %.2fx at 128 GPUs; total speedup %.1fx, training-only %.1fx\n",
		c.BaselineDDPRun(dims, pems, 32, 4, 30).Total.Minutes()/c.DistIndexRun(dims, pems, 32, 4, 30).Total.Minutes(),
		ddp128.Total.Minutes()/di128.Total.Minutes(),
		single.Total.Minutes()/di128.Total.Minutes(),
		(single.Train+single.Comm).Minutes()/(di128.Train+di128.Comm).Minutes())

	// Measured at scale: real multi-worker runs; distributed-index-batching
	// must beat baseline DDP on the virtual clock at every worker count.
	fmt.Fprintf(w, "\nmeasured (scaled %s, real ring-AllReduce):\n", dataset.PeMSBay.Scaled(opt.Scale).Name)
	workers := []int{1, 2, 4}
	if opt.Quick {
		workers = []int{1, 2}
	}
	for _, p := range workers {
		cfg := core.Config{
			Meta: dataset.PeMSBay, Scale: opt.Scale, Strategy: core.DistIndex, Hidden: 8, K: 1,
			Config: shard.Config{Replicas: p, BatchSize: 4, Epochs: 2, Seed: opt.Seed},
		}
		di, err := runMeasured(cfg, opt)
		if err != nil {
			return err
		}
		cfg.Strategy = core.BaselineDDP
		bd, err := runMeasured(cfg, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  P=%d dist-index virtual %v (comm %v) vs baseline-DDP %v (comm %v)\n",
			p, di.VirtualTime.Round(1e6), di.CommTime.Round(1e6), bd.VirtualTime.Round(1e6), bd.CommTime.Round(1e6))
		// Compare the deterministic communication component: compute time is
		// real wall time and noisy on loaded hosts, but the data-fetch cost
		// baseline DDP pays is modeled and strictly ordered.
		if p > 1 && bd.CommTime <= di.CommTime {
			return fmt.Errorf("fig7: baseline DDP must spend more on communication at P=%d", p)
		}
	}
	return nil
}

// Fig8 regenerates the accuracy-vs-GPU-count study: growing the global
// batch degrades the best MAE, and LR scaling mitigates it.
func Fig8(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Fig. 8: train/val MAE vs GPU count (measured at reduced scale)")
	fmt.Fprintf(w, "paper (PeMS, 30 epochs): best MAE 1.66 at 1 GPU degrading to 2.23 at 128 GPUs\n")
	scale := opt.Scale * 2
	if scale > 1 {
		scale = 1
	}
	epochs := opt.Epochs
	workers := []int{1, 2, 4, 8}
	if opt.Quick {
		workers = []int{1, 4}
	}
	row(w, fmt.Sprintf("%5s %7s %12s %12s %12s", "GPUs", "steps", "final train", "best val", "best val+LR-scaling"))
	type res struct {
		p       int
		bestVal float64
	}
	var results []res
	for _, p := range workers {
		cfg := core.Config{
			Meta: dataset.PeMSBay, Scale: scale, Strategy: core.DistIndex, Hidden: 8, K: 1,
			Config: shard.Config{Replicas: p, BatchSize: 4, Epochs: epochs, Seed: opt.Seed, LR: 0.01},
		}
		rep, err := runMeasured(cfg, opt)
		if err != nil {
			return err
		}
		cfgLR := cfg
		cfgLR.UseLRScaling = true
		repLR, err := runMeasured(cfgLR, opt)
		if err != nil {
			return err
		}
		row(w, fmt.Sprintf("%5d %7d %12.4f %12.4f %12.4f",
			p, rep.Steps, rep.Curve.FinalTrain(), rep.Curve.BestVal(), repLR.Curve.BestVal()))
		results = append(results, res{p, rep.Curve.BestVal()})
	}
	// The paper's trend: the largest worker count should not beat the
	// single-GPU accuracy under a fixed epoch budget. Only enforced at
	// non-quick scale — with a 2-epoch smoke budget the comparison is
	// noise-dominated.
	if len(results) >= 2 {
		first, last := results[0], results[len(results)-1]
		fmt.Fprintf(w, "trend: best val %f (1 GPU) -> %f (%d GPUs)\n", first.bestVal, last.bestVal, last.p)
		if !opt.Quick && last.bestVal < first.bestVal*0.95 {
			return fmt.Errorf("fig8: large global batch unexpectedly improved accuracy by >5%%")
		}
	}
	return nil
}

// Table5 regenerates the global vs local-batch shuffling accuracy
// comparison on PeMS-BAY.
func Table5(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Table 5: optimal validation MAE, global vs batch-local shuffling (measured)")
	fmt.Fprintf(w, "paper (PeMS-BAY): global 1.932/2.008/2.149 vs local-batch 1.913/1.868/1.833 at 4/8/16 GPUs\n")
	scale := opt.Scale * 2
	if scale > 1 {
		scale = 1
	}
	workers := []int{2, 4}
	if opt.Quick {
		workers = []int{2}
	}
	row(w, fmt.Sprintf("%5s %16s %16s", "GPUs", "global shuffle", "batch shuffle"))
	for _, p := range workers {
		cfg := core.Config{
			Meta: dataset.PeMSBay, Scale: scale, Strategy: core.DistIndex, Hidden: 8, K: 1,
			Config: shard.Config{Replicas: p, BatchSize: 4, Epochs: opt.Epochs, Seed: opt.Seed},
		}
		repG, err := runMeasured(cfg, opt)
		if err != nil {
			return err
		}
		cfgB := cfg
		cfgB.Sampler = ddp.BatchShuffle
		cfgB.SamplerSet = true
		repB, err := runMeasured(cfgB, opt)
		if err != nil {
			return err
		}
		row(w, fmt.Sprintf("%5d %16.4f %16.4f", p, repG.Curve.BestVal(), repB.Curve.BestVal()))
		// Paper finding: batch-level shuffling obtains similar accuracy.
		lo, hi := repG.Curve.BestVal(), repB.Curve.BestVal()
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > lo*1.5 {
			return fmt.Errorf("table5: shuffling strategies diverged beyond the paper's 'similar accuracy' finding (%f vs %f)", lo, hi)
		}
	}
	return nil
}

// Fig9 regenerates the batch-shuffled larger-than-memory comparison:
// generalized-distributed-index-batching vs modified baseline DDP, single
// epoch, 4-128 GPUs.
func Fig9(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Fig. 9: batch-shuffled epoch time, generalized-dist-index vs DDP (modeled full scale)")
	c := perfmodel.NewDeterministic()
	pems := dataset.PeMS
	dims := perfmodel.PGTDCRNNDims(pems.Nodes, pems.Nodes*(pems.NeighborsK+1))
	row(w, fmt.Sprintf("%5s | %9s %9s %9s | %9s %9s %9s | %6s",
		"GPUs", "DDP epoch", "compute", "comm", "Idx epoch", "compute", "comm", "ratio"))
	for _, p := range fig7GPUCounts {
		bb := c.BaselineBatchShuffleEpoch(dims, pems, 32, p)
		gi := c.GenDistIndexEpoch(dims, pems, 32, p)
		row(w, fmt.Sprintf("%5d | %8.1fs %8.1fs %8.1fs | %8.1fs %8.1fs %8.1fs | %5.2fx",
			p, bb.Total.Seconds(), bb.Train.Seconds(), bb.Comm.Seconds(),
			gi.Total.Seconds(), gi.Train.Seconds(), gi.Comm.Seconds(),
			bb.Total.Seconds()/gi.Total.Seconds()))
	}
	fmt.Fprintf(w, "paper: baseline epoch 303s at 4 GPUs; index wins by up to 2.28x; index memory 53.28 GB vs baseline 479.66 GB at 4 workers\n")
	fmt.Fprintf(w, "modeled memory at 4 workers: gen-dist-index %.2f GiB, baseline DDP %.2f GiB\n",
		gb(4*perfmodel.GenDistIndexWorkerBytes(pems, 4)), gb(4*perfmodel.BaselineDDPWorkerBytes(pems, 32, 4)))

	// Measured at scale: batch-shuffled strategies really run, and the
	// index variant moves less data (virtual comm time).
	cfg := core.Config{
		Meta: dataset.PeMSBay, Scale: opt.Scale, Strategy: core.GenDistIndex, Hidden: 8, K: 1,
		Config: shard.Config{Replicas: 2, BatchSize: 4, Epochs: 1, Seed: opt.Seed},
	}
	gi, err := runMeasured(cfg, opt)
	if err != nil {
		return err
	}
	cfgB := cfg
	cfgB.Strategy = core.BaselineDDP
	cfgB.Sampler = ddp.BatchShuffle
	cfgB.SamplerSet = true
	bb, err := runMeasured(cfgB, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measured (scaled, 2 workers): gen-dist-index comm %v vs batch-shuffled DDP comm %v\n",
		gi.CommTime.Round(1e6), bb.CommTime.Round(1e6))
	if bb.CommTime <= gi.CommTime {
		return fmt.Errorf("fig9: baseline DDP must spend more on communication")
	}
	return nil
}

// Fig10 regenerates the ST-LLM distributed-index-batching scaling study on
// PeMS-BAY.
func Fig10(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Fig. 10: ST-LLM distributed-index-batching scaling on PeMS-BAY (modeled full scale)")
	c := perfmodel.NewDeterministic()
	bay := dataset.PeMSBay
	single := c.STLLMDistRun(bay, 64, 1, 30)
	row(w, fmt.Sprintf("%5s %14s %10s %10s", "GPUs", "total (min)", "speedup", "linear"))
	for _, p := range []int{1, 4, 8, 16, 32} {
		est := c.STLLMDistRun(bay, 64, p, 30)
		row(w, fmt.Sprintf("%5d %14.1f %9.2fx %9.2fx",
			p, est.Total.Minutes(), single.Total.Minutes()/est.Total.Minutes(), float64(p)))
	}
	est32 := c.STLLMDistRun(bay, 64, 32, 30)
	speedup32 := single.Total.Minutes() / est32.Total.Minutes()
	fmt.Fprintf(w, "paper: 3.92x at 4 GPUs, 30.01x at 32 GPUs (near-linear); preprocessing <= 1.35s of runtime\n")
	fmt.Fprintf(w, "modeled: %.2fx at 4 GPUs, %.2fx at 32 GPUs; preprocessing %.2fs\n",
		single.Total.Minutes()/c.STLLMDistRun(bay, 64, 4, 30).Total.Minutes(), speedup32, est32.Preprocess.Seconds())
	if speedup32 < 20 {
		return fmt.Errorf("fig10: ST-LLM must scale near-linearly to 32 GPUs, got %.1fx", speedup32)
	}

	// Measured at scale: the ST-LLM-lite model trains under
	// distributed-index-batching.
	cfg := core.Config{
		Meta: dataset.PeMSBay, Scale: opt.Scale, Model: core.ModelSTLLM, Strategy: core.DistIndex, Hidden: 16,
		Config: shard.Config{Replicas: 2, BatchSize: 4, Epochs: 1, Seed: opt.Seed},
	}
	rep, err := runMeasured(cfg, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measured (scaled, 2 workers): ST-LLM-lite epoch ran, val MAE %.4f, %d steps\n",
		rep.Curve.BestVal(), rep.Steps)
	return nil
}
