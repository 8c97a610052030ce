package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"pgti"
)

// fitOnce sets up a fresh experiment and fits it: one train unit. In a
// traced run every unit (traced or not) carries the epoch-stamping event
// hook, so the traced/untraced difference isolates WithTrace alone.
func (r *run) fitOnce(traced bool) (*pgti.Experiment, trainUnit, error) {
	u := trainUnit{traced: traced}
	opts := r.fit.options(r.cfg.seed)
	if traced {
		opts = append(opts, pgti.WithTrace(pgti.NewTraceRecorder()))
	}
	stamper := epochStamper{u: &u}
	if r.cfg.trace {
		opts = append(opts, stamper.option())
	}

	parent := -1
	if r.rec != nil {
		parent = r.rec.begin("core", "unit", -1, -1, 0, false)
		defer r.rec.end(parent)
	}
	t0 := time.Now()
	exp, err := r.setUp(&u, parent, opts)
	if err != nil {
		return nil, u, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stamper.last = time.Now()
	var rep *pgti.Report
	fitS := r.span("core", "Experiment.Fit", parent, func() { rep, err = exp.Fit(context.Background()) })
	runtime.ReadMemStats(&m1)
	if !r.ops.check(err == nil, "Fit: %v", err) {
		return nil, u, fmt.Errorf("fit: %w", err)
	}
	u.mallocs, u.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	u.report, u.curve, u.steps = rep, curveOf(rep), rep.Steps

	meta, err := r.fit.meta()
	if err != nil {
		return nil, u, err
	}
	train := trainSnapshots(meta.Entries, meta.Horizon)
	u.rounds = []round{{wallS: time.Since(t0).Seconds(), fitS: fitS, samples: train * r.fit.epochs}}
	r.ops.check(rep.Steps == r.fit.expectedSteps(train), "Fit took %d steps, want %d", rep.Steps, r.fit.expectedSteps(train))
	r.ops.check(!rep.OOM, "Fit reported OOM: %s", rep.OOMError)
	return exp, u, nil
}

// setUp builds a fresh experiment up to the point where Fit can start, and
// records the set-up times in u.
func (r *run) setUp(u *trainUnit, parent int, opts []pgti.Option) (*pgti.Experiment, error) {
	t0 := time.Now()
	exp, err := pgti.NewExperiment(r.fit.dataset, opts...)
	if err != nil {
		return nil, err
	}
	u.openS = r.span("core", "Experiment.Open", parent, func() { err = exp.Open() })
	if err != nil {
		return nil, err
	}
	u.buildS = r.span("core", "Experiment.Build", parent, func() { err = exp.Build() })
	u.setupS = time.Since(t0).Seconds()
	return exp, err
}

// epochStamper is the event hook of a traced run: it stamps epoch ends into
// the unit and samples the heap there.
type epochStamper struct {
	u    *trainUnit
	last time.Time // previous epoch end, or the start of Fit
}

func (s *epochStamper) option() pgti.Option {
	return pgti.WithEvents(func(ev pgti.Event) {
		if _, ok := ev.(pgti.EpochEvent); !ok {
			return
		}
		now := time.Now()
		s.u.epochS = append(s.u.epochS, now.Sub(s.last).Seconds())
		s.last = now
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.u.heapInuse = max(s.u.heapInuse, ms.HeapInuse)
	})
}

// span times fn, recording it as a span in a traced run; it returns the
// duration in seconds either way.
func (r *run) span(layer, name string, parent int, fn func()) float64 {
	if r.rec != nil {
		return r.rec.timed(layer, name, parent, -1, 0, false, fn)
	}
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// A fit workload predicts after every train unit, so that the latency
// samples spread over the whole run: burstCalls serial Predict calls, after
// a collection and burstWarmup unmeasured calls. Straight after a Fit the
// heap goal is whatever the Fit's garbage left it at, and a burst then sees
// anything from no collection to five; the share of calls a collection slows
// decides which side of it the p95 falls on. From a collected heap the
// collector paces itself by the Predictor's own allocations, the same in
// every burst.
const (
	burstCalls  = 150
	burstWarmup = 10
)

// extraSetups is how many set-ups a fit workload times after every unit,
// beyond the unit's own. Set-up is cheap next to Fit and takes a millisecond
// on the small workloads, so one a unit is too few; taken together at the end
// of the run they would all sit in the same tenth of a second and read the
// host's state in it.
const extraSetups = 3

// runFit is the three fit-* workloads: train units for the whole run, each
// followed by a burst of serial Predict calls on the unit's Predictor.
func runFit(r *run) error {
	var last *pgti.Experiment
	var pred *pgti.Predictor
	var windows []pgti.Window
	var bursts [][]float64
	var qps, setups []float64
	burst := func() {
		if !r.cfg.quick {
			runtime.GC()
			r.serialPredict(pred, windows, burstWarmup)
		}
		l, s := r.serialPredict(pred, windows, burstCalls)
		bursts, qps = append(bursts, l), append(qps, float64(len(l))/s)
	}
	units, err := r.loopUnits(r.share(1), func(traced bool) (trainUnit, error) {
		exp, u, err := r.fitOnce(traced)
		if err != nil || r.cfg.curveOnly {
			return u, err
		}
		if pred, err = exp.Predictor(); err != nil {
			return u, err
		}
		if windows == nil {
			windows = makeWindows(r.cfg.seed, 64, pred.Horizon(), pred.Nodes(), pred.Features())
		}
		last = exp
		burst()
		setups = append(setups, u.setupS)
		for i := 0; i < extraSetups && !r.cfg.trace && !r.cfg.quick; i++ {
			var extra trainUnit
			runtime.GC()
			if _, err := r.setUp(&extra, -1, r.fit.options(r.cfg.seed)); err != nil {
				return u, err
			}
			setups = append(setups, extra.setupS)
		}
		return u, nil
	})
	if err != nil {
		return err
	}
	r.reportTraining(units, r.fit.epochs)
	if r.cfg.curveOnly {
		return nil
	}
	for len(bursts) < minBursts && !r.cfg.quick {
		burst()
	}
	p50, p95 := r.percentiles(calmSamples(bursts))

	if !r.cfg.trace {
		r.set("setup_s", calm(setups, false))
		r.set("predict_qps", calm(qps, true))
		r.set("predict_p50_ms", p50)
		r.set("predict_p95_ms", p95)
		r.reportProcess()
		runtime.KeepAlive(last)
		return nil
	}
	r.reportProcess()
	r.reportUnitLayers(units)
	r.set("core.predict_serial_ms", p50)
	r.set("core.forward_batch8_ms", r.forwardBatch8(pred, windows))
	return r.replay(units)
}

// minPercentileCalls is the fewest latency samples that support a p95;
// minBursts is the fewest bursts whose calmer half holds that many.
const (
	minPercentileCalls = minBeyond*20 + 20
	minBursts          = 3
)

// serialPredict makes n Predict calls back to back from one caller (a
// closed loop of one). It returns each call's latency in ms and the wall
// seconds they took together.
func (r *run) serialPredict(pred *pgti.Predictor, windows []pgti.Window, n int) (lat []float64, elapsed float64) {
	if r.cfg.quick {
		n = 8
	}
	var first pgti.Forecast
	begin := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f, err := pred.Predict(windows[i%len(windows)])
		lat = append(lat, time.Since(t0).Seconds()*1e3)
		r.ops.check(err == nil && validForecast(f, pred.Horizon(), pred.Nodes()), "Predict %d: err %v, forecast %dx%d", i, err, f.Horizon, f.Nodes)
		if i == 0 {
			first = f
		}
	}
	elapsed = time.Since(begin).Seconds()
	again, err := pred.Predict(windows[0])
	r.ops.check(err == nil && slices.Equal(again.Pred, first.Pred), "Predict of the same window twice differs")
	return lat, elapsed
}

// percentiles returns the p50 and p95 of lat. A refused percentile is a
// failed operation, except at toy size, where the largest value stands in.
func (r *run) percentiles(lat []float64) (p50, p95 float64) {
	p50 = median(lat)
	p95, err := percentile(lat, 95)
	if err != nil {
		if !r.cfg.quick {
			r.ops.check(false, "p95: %v", err)
		}
		p95 = slices.Max(lat)
	}
	return p50, p95
}

func validForecast(f pgti.Forecast, horizon, nodes int) bool {
	if len(f.Pred) != horizon*nodes {
		return false
	}
	for _, v := range f.Pred {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// makeWindows generates n seeded request windows in raw signal units: the
// first feature a plausible reading, any further one a time-of-day share.
func makeWindows(seed uint64, n, horizon, nodes, features int) []pgti.Window {
	rng := rand.New(rand.NewPCG(seed, 0x77696e646f7773)) // "windows"
	ws := make([]pgti.Window, n)
	for i := range ws {
		vals := make([]float64, horizon*nodes*features)
		for j := range vals {
			if j%features == 0 {
				vals[j] = 30 + 40*rng.Float64()
			} else {
				vals[j] = rng.Float64()
			}
		}
		ws[i] = pgti.Window{Values: vals}
	}
	return ws
}

// forwardBatch8 is the median time of one 8-window InferCore.ForwardBatch,
// the forward the server's coalescing queue dispatches at MaxBatch.
func (r *run) forwardBatch8(pred *pgti.Predictor, windows []pgti.Window) float64 {
	n := 20
	if r.cfg.quick {
		n = 3
	}
	var ms []float64
	for i := 0; i < n; i++ {
		batch := windows[(i*8)%len(windows):][:8]
		var err error
		ms = append(ms, 1e3*r.span("core", "InferCore.ForwardBatch", -1, func() { _, err = pred.ForwardBatch(batch) }))
		r.ops.check(err == nil, "ForwardBatch: %v", err)
	}
	return median(ms)
}

// reportUnitLayers reports the layer metrics read off the traced units:
// Report fields the layers fill in (source 2) and the spans around the
// public calls (source 3).
func (r *run) reportUnitLayers(units []trainUnit) {
	var open, build, epochs []float64
	var heap uint64
	var traced *trainUnit
	for i := range units {
		u := &units[i]
		open = append(open, u.openS*1e3)
		build = append(build, u.buildS*1e3)
		epochs = append(epochs, u.epochS...)
		heap = max(heap, u.heapInuse)
		if u.traced {
			traced = u
		}
	}
	r.set("core.open_ms", median(open))
	r.set("core.build_ms", median(build))
	r.set("core.epoch_s_p50", median(epochs))
	r.set("runtime.heap_inuse_peak_mb", float64(heap)/1e6)
	rep := traced.report
	r.set("core.virtual_s", rep.VirtualTime.Seconds())
	r.set("core.final_val_mae", traced.curve[len(traced.curve)-1].Val)
	r.set("ddp.grad_sync_mb", float64(rep.GradSyncBytes)/1e6)
	r.set("ddp.grad_buckets", float64(rep.GradBuckets))
	r.set("ddp.comm_exposed_ms", rep.CommTime.Seconds()*1e3)
	r.set("ddp.comm_hidden_ms", rep.CommHiddenTime.Seconds()*1e3)
	r.set("shard.halo_mb", float64(rep.HaloBytes)/1e6)
	r.set("shard.halo_exposed_ms", (rep.HaloTime-rep.HaloHiddenTime).Seconds()*1e3)
	r.set("shard.edge_cut", float64(rep.EdgeCut))
	if len(rep.ShardLoads) > 0 {
		r.set("shard.load_spread", slices.Max(rep.ShardLoads)/slices.Min(rep.ShardLoads))
	}
	r.set("memsim.peak_gpu_mb", float64(rep.PeakGPUBytes)/1e6)
	r.set("memsim.per_worker_mb", float64(rep.PerWorkerBytes)/1e6)
	if rep.Trace != nil {
		r.set("trace.spans", float64(rep.Trace.Spans))
	}
}
