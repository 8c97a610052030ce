package experiments

import (
	"fmt"

	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/memsim"
	"pgti/internal/perfmodel"
	"pgti/internal/shard"
)

// Table2 regenerates the single-epoch DCRNN vs PGT-DCRNN comparison on
// PeMS-All-LA: runtime, max system memory, max GPU memory.
func Table2(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Table 2: single-epoch DCRNN vs PGT-DCRNN on PeMS-All-LA")
	c := perfmodel.NewDeterministic()
	la := dataset.PeMSAllLA
	dims := perfmodel.PGTDCRNNDims(la.Nodes, la.Nodes*(la.NeighborsK+1))
	pgt := c.SingleGPURun(dims, la, 32, 1, false)
	dcrnn := c.BaselineSingleGPURun(dims, la, 32, 1)

	trPGT := memsim.NewTracker("m", 0)
	if err := perfmodel.ReplayStages(trPGT, perfmodel.StandardPipelineStages(la, false)); err != nil {
		return err
	}
	trD := memsim.NewTracker("m", 0)
	if err := perfmodel.ReplayStages(trD, perfmodel.StandardPipelineStages(la, true)); err != nil {
		return err
	}
	row(w, fmt.Sprintf("%-12s %22s %26s %22s", "Model", "Runtime (min)", "Max system mem (GB)", "Max GPU mem (GB)"))
	row(w, fmt.Sprintf("%-12s %8.2f (paper 68.48) %10.2f (paper 371.25) %8.2f (paper 24.84)",
		"DCRNN", dcrnn.Total.Minutes(), gb(trD.Peak()), gb(perfmodel.TrainingGPUBytes(la, 32, 64, true))))
	row(w, fmt.Sprintf("%-12s %8.2f (paper  4.48) %10.2f (paper 259.84) %8.2f (paper  1.58)",
		"PGT-DCRNN", pgt.Total.Minutes(), gb(trPGT.Peak()), gb(perfmodel.TrainingGPUBytes(la, 32, 64, false))))
	fmt.Fprintf(w, "modeled speedup %.1fx (paper 15.3x)\n", dcrnn.Total.Minutes()/pgt.Total.Minutes())

	// Measured at scale: the deeper encoder-decoder DCRNN really is several
	// times slower than PGT-DCRNN on identical data.
	base := core.Config{
		Meta: dataset.PeMSAllLA, Scale: opt.Scale * 0.5, Strategy: core.Baseline, Hidden: 8, K: 1,
		Config: shard.Config{BatchSize: 8, Epochs: 1, Seed: opt.Seed},
	}
	cfgP := base
	cfgP.Model = core.ModelPGTDCRNN
	repP, err := runMeasured(cfgP, opt)
	if err != nil {
		return err
	}
	cfgD := base
	cfgD.Model = core.ModelDCRNN
	repD, err := runMeasured(cfgD, opt)
	if err != nil {
		return err
	}
	ratio := float64(repD.WallTime) / float64(repP.WallTime)
	fmt.Fprintf(w, "measured (%s): DCRNN %.2fs vs PGT-DCRNN %.2fs -> %.1fx slower (paper 15.3x at full scale)\n",
		repP.Dataset, repD.WallTime.Seconds(), repP.WallTime.Seconds(), ratio)
	if ratio <= 1.5 {
		return fmt.Errorf("table2: DCRNN must be substantially slower than PGT-DCRNN (got %.2fx)", ratio)
	}
	return nil
}

// table3Case is one dataset row of Table 3 / Fig. 5.
type table3Case struct {
	meta       dataset.Meta
	scale      float64
	batch      int
	paperBase  [3]float64 // runtime s, MAE, mem MB
	paperIndex [3]float64
}

func table3Cases(opt Options) []table3Case {
	return []table3Case{
		// Chickenpox is small enough to run at full scale.
		{dataset.ChickenpoxHungary, 1, 4, [3]float64{188, 0.6061, 1093}, [3]float64{192, 0.6061, 1089}},
		{dataset.WindmillLarge, opt.Scale, 16, [3]float64{2323, 0.1707, 2455}, [3]float64{2339, 0.1606, 1304}},
		{dataset.PeMSBay, opt.Scale, 16, [3]float64{3731, 1.8923, 4497}, [3]float64{3735, 1.8892, 1335}},
	}
}

// runPair executes the baseline and index strategies with identical
// settings and returns the two reports.
func runPair(meta dataset.Meta, scale float64, batch, epochs int, model core.ModelKind, seed uint64, opt Options) (*core.Report, *core.Report, error) {
	base := core.Config{
		Meta: meta, Scale: scale, Model: model, Strategy: core.Baseline, Hidden: 8, K: 1,
		Config: shard.Config{BatchSize: batch, Epochs: epochs, Seed: seed},
	}
	idxCfg := base
	idxCfg.Strategy = core.Index
	repB, err := runMeasured(base, opt)
	if err != nil {
		return nil, nil, err
	}
	repI, err := runMeasured(idxCfg, opt)
	if err != nil {
		return nil, nil, err
	}
	return repB, repI, nil
}

// Table3 regenerates the single-GPU base-vs-index comparison on
// Chickenpox-Hungary, Windmill-Large and PeMS-BAY: runtime, MAE, max
// memory.
func Table3(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Table 3: base vs index batching (measured at reduced scale)")
	row(w, fmt.Sprintf("%-28s %12s %12s %14s %s", "Run", "Runtime (s)", "Best MAE", "Peak mem", "paper (s / MAE / MB)"))
	for _, c := range table3Cases(opt) {
		if opt.Quick && c.meta.Name != dataset.ChickenpoxHungary.Name {
			continue
		}
		repB, repI, err := runPair(c.meta, c.scale, c.batch, opt.Epochs, core.ModelPGTDCRNN, opt.Seed, opt)
		if err != nil {
			return err
		}
		row(w, fmt.Sprintf("%-28s %12.2f %12.4f %14s %g / %g / %g",
			"Base-"+repB.Dataset, repB.WallTime.Seconds(), repB.Curve.BestVal(),
			memsim.FormatBytes(repB.PeakSystemBytes), c.paperBase[0], c.paperBase[1], c.paperBase[2]))
		row(w, fmt.Sprintf("%-28s %12.2f %12.4f %14s %g / %g / %g",
			"Index-"+repI.Dataset, repI.WallTime.Seconds(), repI.Curve.BestVal(),
			memsim.FormatBytes(repI.PeakSystemBytes), c.paperIndex[0], c.paperIndex[1], c.paperIndex[2]))
		// The paper's claims: identical accuracy, comparable runtime, lower
		// memory for index-batching.
		if d := repB.Curve.BestVal() - repI.Curve.BestVal(); d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("table3: %s: index MAE %.6f != base MAE %.6f", c.meta.Name, repI.Curve.BestVal(), repB.Curve.BestVal())
		}
		if repI.PeakSystemBytes >= repB.PeakSystemBytes {
			return fmt.Errorf("table3: %s: index peak must be below base", c.meta.Name)
		}
	}
	fmt.Fprintln(w, "note: MAE equality is exact by construction (identical snapshots); memory ordering matches the paper")
	return nil
}

// Fig5 regenerates the validation-MAE training curves, base vs index.
func Fig5(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Fig. 5: validation MAE per epoch, base vs index (measured)")
	repB, repI, err := runPair(dataset.ChickenpoxHungary, 1, 4, opt.Epochs, core.ModelPGTDCRNN, opt.Seed, opt)
	if err != nil {
		return err
	}
	row(w, fmt.Sprintf("%5s %14s %14s", "epoch", "baseline", "index"))
	for i := range repB.Curve {
		row(w, fmt.Sprintf("%5d %14.6f %14.6f", i, repB.Curve[i].ValMAE, repI.Curve[i].ValMAE))
	}
	fmt.Fprintln(w, "paper: curves coincide; index-batching changes nothing about convergence")
	for i := range repB.Curve {
		if d := repB.Curve[i].ValMAE - repI.Curve[i].ValMAE; d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("fig5: curves diverge at epoch %d", i)
		}
	}
	return nil
}

// Table4 regenerates the PeMS single-GPU index vs GPU-index comparison.
func Table4(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Table 4: single-GPU PeMS, index vs GPU-index (modeled full scale)")
	c := perfmodel.NewDeterministic()
	pems := dataset.PeMS
	dims := perfmodel.PGTDCRNNDims(pems.Nodes, pems.Nodes*(pems.NeighborsK+1))
	idx := c.SingleGPURun(dims, pems, 32, 30, false)
	gidx := c.SingleGPURun(dims, pems, 32, 30, true)

	trIdx := memsim.NewTracker("m", 0)
	if err := perfmodel.ReplayStages(trIdx, perfmodel.IndexPipelineStages(pems)); err != nil {
		return err
	}
	host, gpu := perfmodel.GPUIndexPipelineStages(pems, 32, 64)
	trH := memsim.NewTracker("m", 0)
	trG := memsim.NewTracker("m", 0)
	if err := perfmodel.ReplayStages(trH, host); err != nil {
		return err
	}
	if err := perfmodel.ReplayStages(trG, gpu); err != nil {
		return err
	}
	row(w, fmt.Sprintf("%-20s %22s %22s %22s", "Implementation", "Runtime (min)", "CPU mem (GB)", "GPU mem (GB)"))
	row(w, fmt.Sprintf("%-20s %8.2f (paper 333.58) %8.2f (paper 45.84) %8.2f (paper  5.50)",
		"Index-batching", idx.Total.Minutes(), gb(trIdx.Peak()), gb(perfmodel.TrainingGPUBytes(pems, 32, 64, false))))
	row(w, fmt.Sprintf("%-20s %8.2f (paper 290.65) %8.2f (paper 18.20) %8.2f (paper 18.60)",
		"GPU-index-batching", gidx.Total.Minutes(), gb(trH.Peak()), gb(trG.Peak())))
	fmt.Fprintf(w, "modeled runtime saving %.2f%% (paper 12.87%%); preprocessing %.1fs vs %.1fs (paper 26.05 / 19.05)\n",
		100*(1-gidx.Total.Minutes()/idx.Total.Minutes()), idx.Preprocess.Seconds(), gidx.Preprocess.Seconds())

	// Measured at scale: GPU residency shifts bytes CPU->GPU and removes
	// per-batch transfer time from the virtual clock.
	cfg := core.Config{
		Meta: dataset.PeMSBay, Scale: opt.Scale, Strategy: core.Index, Hidden: 8, K: 1,
		Config: shard.Config{BatchSize: 8, Epochs: 2, Seed: opt.Seed},
	}
	repI, err := runMeasured(cfg, opt)
	if err != nil {
		return err
	}
	cfg.Strategy = core.GPUIndex
	repG, err := runMeasured(cfg, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measured (%s): GPU peak %s -> %s, steady CPU %s -> %s\n",
		repI.Dataset,
		memsim.FormatBytes(repI.PeakGPUBytes), memsim.FormatBytes(repG.PeakGPUBytes),
		memsim.FormatBytes(lastBytes(repI)), memsim.FormatBytes(lastBytes(repG)))
	if repG.PeakGPUBytes <= repI.PeakGPUBytes || lastBytes(repG) >= lastBytes(repI) {
		return fmt.Errorf("table4: measured CPU/GPU trade is inverted")
	}
	return nil
}

func lastBytes(r *core.Report) int64 {
	if len(r.MemorySeries) == 0 {
		return 0
	}
	return r.MemorySeries[len(r.MemorySeries)-1].Bytes
}

// Table6 regenerates the A3T-GCN broader-applicability study on METR-LA:
// runtime, CPU memory, test MSE for base vs index batching.
func Table6(opt Options) error {
	opt = opt.filled()
	w := opt.Out
	header(w, "Table 6: A3T-GCN on METR-LA, base vs index (measured at reduced scale)")
	repB, repI, err := runPair(dataset.MetrLA, opt.Scale, 16, opt.Epochs, core.ModelA3TGCN, opt.Seed, opt)
	if err != nil {
		return err
	}
	row(w, fmt.Sprintf("%-16s %14s %16s %12s", "Implementation", "Runtime (s)", "CPU peak", "Test MSE"))
	row(w, fmt.Sprintf("%-16s %14.2f %16s %12.4f   (paper 1041.95s / 2426.26 MB / 0.5436)",
		"Baseline", repB.WallTime.Seconds(), memsim.FormatBytes(repB.PeakSystemBytes), repB.TestMSE))
	row(w, fmt.Sprintf("%-16s %14.2f %16s %12.4f   (paper 1050.80s / 1232.62 MB / 0.5427)",
		"Index-batching", repI.WallTime.Seconds(), memsim.FormatBytes(repI.PeakSystemBytes), repI.TestMSE))
	memSaving := 1 - float64(repI.PeakSystemBytes)/float64(repB.PeakSystemBytes)
	fmt.Fprintf(w, "measured memory saving %.1f%% (paper 49.2%%); MSE difference %.2g (paper 0.0009)\n",
		100*memSaving, repI.TestMSE-repB.TestMSE)
	if repI.PeakSystemBytes >= repB.PeakSystemBytes {
		return fmt.Errorf("table6: index must reduce memory")
	}
	if d := repI.TestMSE - repB.TestMSE; d > 1e-6 || d < -1e-6 {
		return fmt.Errorf("table6: test MSE must match between pipelines, diff %g", d)
	}
	return nil
}
