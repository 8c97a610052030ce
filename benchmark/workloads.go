package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pgti"
	"pgti/internal/dataset"
)

// decl declares one metric: its name and unit. BENCHMARK.json repeats both
// lists (with direction and bounds); the smoke test keeps them equal.
type decl struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports every
// one of them with tracing off.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"train_samples_per_s", "1/s"},
	{"allocs_per_sample", "count"},
	{"alloc_mb_per_sample", "MB"},
	{"model_peak_mb", "MB"},
	{"retained_heap_mb", "MB"},
	{"predict_qps", "1/s"},
	{"predict_p50_ms", "ms"},
	{"predict_p95_ms", "ms"},
}

// perLayer is what single layers do. A traced run reports every one of
// them; a layer the workload never enters reports 0.
var perLayer = []decl{
	{"tensor.matmul_us", "us"}, {"tensor.matmul_allocs", "count"}, {"tensor.sigmoid_us", "us"},
	{"sparse.spmm_us", "us"}, {"sparse.spmm_allocs", "count"},
	{"autograd.loss_us", "us"}, {"autograd.backward_ms", "ms"}, {"autograd.backward_allocs", "count"}, {"autograd.backward_alloc_kb", "kB"},
	{"nn.forward_ms", "ms"}, {"nn.forward_allocs", "count"}, {"nn.forward_alloc_kb", "kB"}, {"nn.dcgru_step_ms", "ms"}, {"nn.adam_step_us", "us"},
	{"batching.index_prep_ms", "ms"}, {"batching.standard_prep_ms", "ms"}, {"batching.assemble_us", "us"}, {"batching.standard_batch_us", "us"},
	{"batching.sampler_epoch_us", "us"}, {"batching.retained_mb", "MB"},
	{"dataset.generate_ms", "ms"},
	{"cluster.allreduce_us", "us"}, {"cluster.allreduce_allocs", "count"}, {"cluster.run_spawn_us", "us"},
	{"ddp.flatten_us", "us"}, {"ddp.grad_sync_mb", "MB"}, {"ddp.grad_buckets", "count"}, {"ddp.comm_exposed_ms", "ms"}, {"ddp.comm_hidden_ms", "ms"},
	{"shard.plan_ms", "ms"}, {"shard.halo_gather_us", "us"}, {"shard.halo_mb", "MB"}, {"shard.halo_exposed_ms", "ms"}, {"shard.edge_cut", "count"}, {"shard.load_spread", "ratio"},
	{"core.open_ms", "ms"}, {"core.build_ms", "ms"}, {"core.epoch_s_p50", "s"}, {"core.virtual_s", "s"}, {"core.fit_unexplained_share", "ratio"},
	{"core.predict_serial_ms", "ms"}, {"core.forward_batch8_ms", "ms"}, {"core.final_val_mae", "signal"}, {"core.step_ms", "ms"},
	{"serve.mean_batch_closed", "count"}, {"serve.mean_batch_open", "count"}, {"serve.queue_overhead_ms", "ms"}, {"serve.predict_p99_ms", "ms"},
	{"serve.shed", "count"}, {"serve.retries", "count"}, {"serve.swap_ms", "ms"}, {"serve.swap_stall_ms", "ms"}, {"serve.gen_late_ms_max", "ms"},
	{"stream.wait_ms", "ms"}, {"stream.materialize_ms", "ms"}, {"stream.release_us", "us"}, {"stream.fit_share", "ratio"},
	{"memsim.peak_gpu_mb", "MB"}, {"memsim.per_worker_mb", "MB"},
	{"trace.overhead_share", "ratio"}, {"trace.spans", "count"},
	{"runtime.num_gc", "count"}, {"runtime.gc_pause_total_ms", "ms"}, {"runtime.peak_rss_mb", "MB"}, {"runtime.heap_inuse_peak_mb", "MB"},
}

// fitSpec is one training configuration, as the public options spell it.
type fitSpec struct {
	dataset         string
	scale           float64
	strategy        pgti.Strategy
	hidden, k       int
	batch, epochs   int
	workers, shards int // data-parallel replicas; spatial shards (<2: none)
	prefetch        bool
}

func (s fitSpec) options(seed uint64) []pgti.Option {
	opts := []pgti.Option{
		pgti.WithSeed(seed), pgti.WithScale(s.scale), pgti.WithStrategy(s.strategy),
		pgti.WithHidden(s.hidden), pgti.WithDiffusionSteps(s.k),
		pgti.WithBatchSize(s.batch), pgti.WithEpochs(s.epochs),
	}
	if s.workers > 1 {
		opts = append(opts, pgti.WithWorkers(s.workers))
	}
	if s.shards > 1 {
		opts = append(opts, pgti.WithSpatial(s.shards))
	}
	if s.prefetch {
		opts = append(opts, pgti.WithPrefetch())
	}
	return opts
}

// meta returns the dataset shape the run trains on.
func (s fitSpec) meta() (dataset.Meta, error) {
	m, err := dataset.ByName(s.dataset)
	if err != nil {
		return m, err
	}
	if s.scale > 0 && s.scale < 1 {
		m = m.Scaled(s.scale)
	}
	return m, nil
}

func (s fitSpec) replicas() int { return max(s.workers, 1) }

// world is the number of worker goroutines the trainer runs.
func (s fitSpec) world() int { return s.replicas() * max(s.shards, 1) }

// trainSnapshots is the 70 % training split of a dataset of this many
// entries, worked out here rather than read back from the program.
func trainSnapshots(entries, horizon int) int {
	return int(math.Round(float64(entries-(2*horizon-1)) * 0.70))
}

// expectedSteps is the optimizer step count of one Fit: every replica takes
// its contiguous share of the shuffled training split, and all stop at the
// shortest share's batch count.
func (s fitSpec) expectedSteps(train int) int {
	share := train / s.replicas()
	return s.epochs * ((share + s.batch - 1) / s.batch)
}

// workloadSpec sizes one workload. fit is the training configuration of its
// train unit (for serve-mix and stream-ddp2, the bootstrap fit); quick is
// the toy-size variant the smoke test runs.
type workloadSpec struct {
	name  string
	why   string
	fit   fitSpec
	quick fitSpec
	run   func(r *run) error
}

var workloads = []workloadSpec{
	{
		name: "fit-index",
		why:  "plain single-worker index-batching Fit: tensor, sparse, autograd and nn do nearly all the work, no cluster, ddp or shard",
		fit:  fitSpec{dataset: "PeMS", scale: 0.002, strategy: pgti.StrategyIndex, hidden: 16, k: 2, batch: 8, epochs: 1},
		run:  runFit,
	},
	{
		name: "fit-hybrid-2x2",
		why:  "same data and model on a 2x2 spatial x data grid with prefetch: halo exchange, sharded SpMM, group AllReduce, 4 workers on 2 cores",
		fit: fitSpec{dataset: "PeMS", scale: 0.002, strategy: pgti.StrategyDistIndex, hidden: 16, k: 2, batch: 8, epochs: 2,
			workers: 2, shards: 2, prefetch: true},
		run: runFit,
	},
	{
		name: "fit-standard-wide",
		why:  "standard batching on a wide graph: materialised copies instead of views, so set-up time and memory show; small model",
		fit:  fitSpec{dataset: "PeMS", scale: 0.005, strategy: pgti.StrategyBaseline, hidden: 4, k: 1, batch: 64, epochs: 1},
		run:  runFit,
	},
	{
		name: "serve-mix",
		why:  "forward-only path behind the coalescing server: 8 closed-loop callers for capacity, seeded Poisson arrivals for latency, in alternating slices",
		fit:  fitSpec{dataset: "PeMS", scale: 0.002, strategy: pgti.StrategyIndex, hidden: 16, k: 2, batch: 32, epochs: 1},
		run:  runServeMix,
	},
	{
		name: "stream-ddp2",
		why:  "many short 2-worker DDP retrains on a tiny graph, swapped into a live server beside a paced caller: per-step overhead outweighs kernels",
		fit:  fitSpec{dataset: "Chickenpox-Hungary", scale: 1, strategy: pgti.StrategyIndex, hidden: 16, k: 2, batch: 8, epochs: 1},
		run:  runStreamDDP2,
	},
}

func init() {
	// Toy sizes keep each workload's shape (strategy, grid, prefetch) and
	// shrink the data and model: 5 nodes x 130 entries, 11 steps.
	for i := range workloads {
		q := workloads[i].fit
		q.dataset, q.scale, q.hidden, q.k, q.batch, q.epochs = "Chickenpox-Hungary", 0.25, 4, 1, 8, 1
		if workloads[i].name == "stream-ddp2" {
			q.scale = 1 // a stream is never scaled, and the bootstrap model must match it
		}
		workloads[i].quick = q
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// curveRow is one epoch of a training curve.
type curveRow struct {
	Train float64 `json:"train_mae"`
	Val   float64 `json:"val_mae"`
}

func curveOf(rep *pgti.Report) []curveRow {
	rows := make([]curveRow, len(rep.Curve))
	for i, rec := range rep.Curve {
		rows[i] = curveRow{rec.TrainMAE, rec.ValMAE}
	}
	return rows
}

// round is one full training round: the experiment's set-up and its Fit.
type round struct {
	wallS   float64 // whole round
	fitS    float64 // wall time inside Fit
	samples int     // training snapshots consumed
}

// trainUnit is one repetition of a workload's training part: a fresh
// experiment set up and fitted, which is one round (one Retrain call of
// several rounds on stream-ddp2).
type trainUnit struct {
	traced        bool
	setupS        float64 // fresh NewExperiment + Open + Build
	openS, buildS float64
	rounds        []round
	mallocs       uint64 // MemStats.Mallocs delta across the unit's Fit calls
	allocBytes    uint64 // MemStats.TotalAlloc delta, likewise
	steps         int
	curve         []curveRow
	report        *pgti.Report // the last round's
	epochS        []float64    // epoch durations from EpochEvent stamps (traced runs' hook)
	heapInuse     uint64       // largest HeapInuse seen at an epoch end
}

func (u trainUnit) fitS() (s float64) {
	for _, rd := range u.rounds {
		s += rd.fitS
	}
	return s
}

func (u trainUnit) samples() (n int) {
	for _, rd := range u.rounds {
		n += rd.samples
	}
	return n
}

// run is one invocation of one workload.
type run struct {
	cfg     runConfig
	fit     fitSpec
	ops     ops
	values  map[string]float64
	rec     *recorder  // spans; nil with tracing off
	golden  []curveRow // the run's canonical curve, checked against golden.json
	gc0     runtime.MemStats
	workers int // worker goroutines per step, for the per-layer table
}

// ops counts operations attempted and failed: Fit calls, Predict calls,
// stream rounds and output checks.
type ops struct{ attempted, failed int }

func (o *ops) attempt(n int) { o.attempted += n }

// check counts one operation and reports it when it failed.
func (o *ops) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
	return ok
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// share is the given share of the measuring time the driver asked for.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.cfg.seconds * float64(time.Second))
}

func runWorkload(cfg runConfig) (result, error) {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	r := &run{cfg: cfg, fit: spec.fit, values: map[string]float64{}, workers: 1}
	if cfg.quick {
		r.fit = spec.quick
	}
	decls := endToEnd
	if cfg.trace {
		decls = perLayer
		r.rec = newRecorder()
		for _, d := range perLayer {
			r.values[d.name] = 0
		}
		runtime.ReadMemStats(&r.gc0)
	}
	if err := spec.run(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.checkGolden()
	if cfg.trace {
		if err := r.finishTrace(); err != nil {
			return result{}, err
		}
	}

	res := result{Attempted: r.ops.attempted, Failed: r.ops.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s was not measured (have %v, value %v)", cfg.workload, d.name, ok, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// finishTrace reports the process-level layer metrics, prints the per-layer
// table and writes the span file.
func (r *run) finishTrace() error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("runtime.num_gc", float64(ms.NumGC-r.gc0.NumGC))
	r.set("runtime.gc_pause_total_ms", float64(ms.PauseTotalNs-r.gc0.PauseTotalNs)/1e6)
	spans := r.rec.snapshot()
	rows, stepUS := layerTable(spans, r.workers)
	steps := map[int]bool{}
	for _, s := range spans {
		if s.Step >= 0 {
			steps[s.Step] = true
		}
	}
	printLayerTable(os.Stderr, r.cfg.workload, rows, stepUS, len(steps))
	path := filepath.Join(r.cfg.outDir, r.cfg.workload+".trace.json")
	return writeTraceFile(path, traceFile{Workload: r.cfg.workload, Seed: r.cfg.seed, Workers: r.workers, Spans: spans})
}

// loopUnits repeats unit for about the budget: it stops once less than half
// of the longest unit so far is left of it. A traced run alternates untraced
// and traced units, so that their difference is the tracing overhead; a
// quick run makes one of each kind it needs and stops.
func (r *run) loopUnits(budget time.Duration, unit func(traced bool) (trainUnit, error)) ([]trainUnit, error) {
	var units []trainUnit
	begin := time.Now()
	var longest time.Duration
	for n := 0; ; n++ {
		runtime.GC() // the previous unit's garbage is not this unit's cost
		t0 := time.Now()
		u, err := unit(r.cfg.trace && n%2 == 1)
		if err != nil {
			return units, err
		}
		units = append(units, u)
		longest = max(longest, time.Since(t0))
		enough := !r.cfg.trace || len(units) >= 2
		if enough && (r.cfg.quick || r.cfg.curveOnly || time.Since(begin)+longest/2 > budget) {
			return units, nil
		}
	}
}

// reportTraining folds the untraced units into the training metrics every
// workload reports, and checks each unit's outputs.
func (r *run) reportTraining(units []trainUnit, wantRows int) {
	var perS, allocs, mb, rounds, fitUntraced, fitTraced []float64
	for i, u := range units {
		r.ops.check(len(u.curve) == wantRows && finiteCurve(u.curve),
			"unit %d: curve has %d rows, want %d finite ones: %v", i, len(u.curve), wantRows, u.curve)
		// Same seed, same inputs: every unit must land on the same curve,
		// traced or not (the repo pins traced == untraced bitwise).
		r.ops.check(equalCurves(u.curve, units[0].curve, 0),
			"unit %d: curve %v differs from unit 0's %v", i, u.curve, units[0].curve)
		if u.traced {
			fitTraced = append(fitTraced, u.fitS())
			continue
		}
		fitUntraced = append(fitUntraced, u.fitS())
		for _, rd := range u.rounds {
			perS = append(perS, float64(rd.samples)/rd.fitS)
			rounds = append(rounds, rd.wallS)
		}
		allocs = append(allocs, float64(u.mallocs)/float64(u.samples()))
		mb = append(mb, float64(u.allocBytes)/float64(u.samples())/1e6)
	}
	r.golden = units[0].curve
	if r.cfg.trace {
		r.set("trace.overhead_share", median(fitTraced)/median(fitUntraced)-1)
		return
	}
	r.set("round_s", calm(rounds, false))
	r.set("train_samples_per_s", calm(perS, true))
	r.set("allocs_per_sample", median(allocs))
	r.set("alloc_mb_per_sample", median(mb))
	r.set("model_peak_mb", float64(units[0].report.PeakSystemBytes)/1e6)
}

// reportProcess reports the process's memory. The caller still holds what
// the workload built (fitted experiment, server), so after a forced
// collection the live heap is what those retain.
func (r *run) reportProcess() {
	if r.cfg.trace {
		rss, err := peakRSSBytes()
		r.ops.check(err == nil, "reading VmHWM: %v", err)
		r.set("runtime.peak_rss_mb", float64(rss)/1e6)
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("retained_heap_mb", float64(ms.HeapAlloc)/1e6)
}

func finiteCurve(c []curveRow) bool {
	for _, row := range c {
		for _, v := range []float64{row.Train, row.Val} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// equalCurves compares two curves to a relative tolerance (0: bitwise).
func equalCurves(a, b []curveRow, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	near := func(x, y float64) bool {
		return x == y || math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y))
	}
	for i := range a {
		if !near(a[i].Train, b[i].Train) || !near(a[i].Val, b[i].Val) {
			return false
		}
	}
	return true
}
