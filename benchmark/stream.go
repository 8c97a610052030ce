package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"pgti"
	"pgti/internal/dataset"
	"pgti/internal/stream"
)

// The streaming workload's shape: a ring of streamRing timesteps, rolling
// retrains over a streamWindow-step window that slides streamAdvance steps
// per round, streamRounds rounds per Retrain call, each round a 2-worker
// distributed-index fit with prefetch.
const (
	streamRing    = 256
	streamWindow  = 200
	streamAdvance = 25
	streamRounds  = 2
	streamEpochs  = 6
	streamWorkers = 2
	// callerPace is the gap between the paced caller's sends: 25 requests
	// per second, enough for a p95 over a 20 s run and far below capacity.
	callerPace = 40 * time.Millisecond
	// callerParts is how many consecutive parts the caller's latencies are
	// cut into; the percentiles are taken over the calmer half of them.
	callerParts = 6
)

// retrainSpec is the per-round fit: the bootstrap model trained the way the
// stream retrains it.
func (r *run) retrainSpec() (fitSpec, int, int, int) {
	s := r.fit
	s.strategy, s.workers, s.prefetch, s.epochs = pgti.StrategyDistIndex, streamWorkers, true, streamEpochs
	window, advance, ring := streamWindow, streamAdvance, streamRing
	if r.cfg.quick {
		s.epochs = 1
		window, advance, ring = 40, 10, 64
	}
	return s, window, advance, ring
}

// pacedCall is one request of the paced caller.
type pacedCall struct {
	sent time.Time
	ms   float64
}

// runStreamDDP2 is the streaming workload: rolling distributed retrains
// swapped into a live server while one caller keeps predicting.
func runStreamDDP2(r *run) error {
	srv, boot, bootUnits, err := r.bootstrap()
	if err != nil {
		return err
	}
	defer srv.Close()
	for i, u := range bootUnits {
		r.ops.check(len(u.curve) == r.fit.epochs && finiteCurve(u.curve), "bootstrap %d: curve %v", i, u.curve)
	}
	spec, window, advance, ring := r.retrainSpec()
	meta, err := r.fit.meta()
	if err != nil {
		return err
	}
	train := trainSnapshots(window, meta.Horizon)
	windows := makeWindows(r.cfg.seed, 64, srv.Horizon(), srv.Nodes(), srv.Features())

	// The paced caller sends on its own clock for as long as retraining
	// runs, whatever the server is doing.
	ctx := context.Background()
	stop := make(chan struct{})
	var calls []pacedCall
	var callFailed int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pace := callerPace
		if r.cfg.quick {
			pace /= 20 // a toy retrain is over within one full gap
		}
		tick := time.NewTicker(pace)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			sent := time.Now()
			f, err := srv.Predict(ctx, windows[i%len(windows)])
			calls = append(calls, pacedCall{sent, time.Since(sent).Seconds() * 1e3})
			if err != nil || !validForecast(f, srv.Horizon(), srv.Nodes()) {
				callFailed++
			}
		}
	}()
	callerStart := time.Now()

	var fitShare []float64
	units, err := r.loopUnits(r.share(1), func(traced bool) (trainUnit, error) {
		u := trainUnit{traced: traced}
		st, err := pgti.NewStream(r.fit.dataset, r.cfg.seed, pgti.StreamOptions{
			Window: ring, Total: (streamRounds-1)*advance + window,
		})
		if err != nil {
			return u, err
		}
		defer st.Close()
		ro := pgti.RetrainOptions{Window: window, Advance: advance, Rounds: streamRounds, Server: srv}
		last := time.Now()
		stamper := epochStamper{u: &u, last: last}
		ro.OnRound = func(rd pgti.StreamRound) {
			now := time.Now()
			u.rounds = append(u.rounds, round{
				wallS: now.Sub(last).Seconds(), fitS: rd.Report.WallTime.Seconds(), samples: train * spec.epochs,
			})
			last, stamper.last = now, now
		}
		if traced {
			// A recorder per round, as a traced retrain attaches them.
			ro.RoundOptions = func(int) []pgti.Option { return []pgti.Option{pgti.WithTrace(pgti.NewTraceRecorder())} }
		}
		opts := spec.options(r.cfg.seed)
		if r.cfg.trace {
			opts = append(opts, stamper.option())
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var rounds []pgti.StreamRound
		total := r.span("stream", "Stream.Retrain", -1, func() { rounds, err = st.Retrain(ctx, ro, opts...) })
		runtime.ReadMemStats(&m1)
		if !r.ops.check(err == nil && len(rounds) == streamRounds, "Retrain: %d rounds, err %v", len(rounds), err) {
			return u, fmt.Errorf("retrain: %w", err)
		}
		u.mallocs, u.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		for _, rd := range rounds {
			r.ops.check(rd.Swapped && rd.Attempts == 1, "round %d: swapped %v after %d attempts", rd.Round, rd.Swapped, rd.Attempts)
			r.ops.check(rd.Report.Steps == spec.expectedSteps(train), "round %d took %d steps, want %d", rd.Round, rd.Report.Steps, spec.expectedSteps(train))
			u.steps += rd.Report.Steps
			u.curve = append(u.curve, curveOf(rd.Report)...)
			u.report = rd.Report
		}
		fitShare = append(fitShare, u.fitS()/total)
		return u, nil
	})
	close(stop)
	wg.Wait()
	callerElapsed := time.Since(callerStart).Seconds()
	if err != nil {
		return err
	}
	r.reportTraining(units, streamRounds*spec.epochs)
	if r.cfg.curveOnly {
		return nil
	}
	r.ops.attempt(len(calls))
	r.ops.failed += callFailed
	// The caller's requests in callerParts consecutive parts of the run.
	lat := make([][]float64, callerParts)
	for i, c := range calls {
		k := i * callerParts / len(calls)
		lat[k] = append(lat[k], c.ms)
	}
	p50, p95 := r.percentiles(calmSamples(lat))

	if !r.cfg.trace {
		r.set("setup_s", calm(setupTimes(bootUnits), false))
		r.set("predict_qps", float64(len(calls))/callerElapsed)
		r.set("predict_p50_ms", p50)
		r.set("predict_p95_ms", p95)
		r.reportProcess()
		runtime.KeepAlive(boot)
		return nil
	}
	r.reportProcess()
	r.reportUnitLayers(units)
	r.set("stream.fit_share", median(fitShare))
	pred, err := boot.Predictor()
	if err != nil {
		return err
	}
	serial, _ := r.serialPredict(pred, windows, minPercentileCalls)
	r.set("core.predict_serial_ms", median(serial))
	r.set("core.forward_batch8_ms", r.forwardBatch8(pred, windows))
	r.set("serve.queue_overhead_ms", p50-median(serial))
	st := srv.Stats()
	r.set("serve.mean_batch_open", st.MeanBatch)
	r.set("serve.shed", float64(st.Shed))
	r.set("serve.retries", float64(st.Retries))
	if err := r.swapBesidePredict(srv, boot, windows); err != nil {
		return err
	}
	if err := r.benchSource(meta, window, advance, ring); err != nil {
		return err
	}
	wmeta := meta
	wmeta.Entries = window
	rs := replaySpec{meta: wmeta, hidden: spec.hidden, k: spec.k, batch: spec.batch, replicas: spec.workers, seed: r.cfg.seed}
	perStep, perSample := untracedFit(units)
	return r.replayLayers(rs, perStep, perSample)
}

// swapBesidePredict swaps weights into the server while a caller predicts
// back to back, and reports the swap time and the worst latency of a
// request that overlapped a swap, over that caller's median.
func (r *run) swapBesidePredict(srv *pgti.Server, exp *pgti.Experiment, windows []pgti.Window) error {
	ctx := context.Background()
	stop := make(chan struct{})
	var calls []pacedCall
	callFailed := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sent := time.Now()
			if _, err := srv.Predict(ctx, windows[i%len(windows)]); err != nil {
				callFailed++
			}
			calls = append(calls, pacedCall{sent, time.Since(sent).Seconds() * 1e3})
		}
	}()
	type interval struct{ from, to time.Time }
	var swaps []interval
	var ms []float64
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		from := time.Now()
		var err error
		ms = append(ms, 1e3*r.span("serve", "Server.Swap", -1, func() { err = srv.Swap(exp) }))
		r.ops.check(err == nil, "Swap: %v", err)
		swaps = append(swaps, interval{from, time.Now()})
	}
	close(stop)
	wg.Wait()
	r.ops.attempt(len(calls))
	r.ops.failed += callFailed
	r.set("serve.swap_ms", median(ms))
	var all []float64
	worst := 0.0
	for _, c := range calls {
		all = append(all, c.ms)
		end := c.sent.Add(time.Duration(c.ms * float64(time.Millisecond)))
		if slices.ContainsFunc(swaps, func(s interval) bool { return c.sent.Before(s.to) && end.After(s.from) }) {
			worst = max(worst, c.ms)
		}
	}
	r.set("serve.swap_stall_ms", max(0, worst-median(all)))
	return nil
}

// benchSource times the ingestion layer's own calls on a fresh source: the
// wait for a full window, its materialisation, and releasing history.
func (r *run) benchSource(meta dataset.Meta, window, advance, ring int) error {
	src, err := stream.NewSource(meta, r.cfg.seed, stream.Options{Window: ring, Total: window + advance})
	if err != nil {
		return err
	}
	defer src.Close()
	ok := false
	r.set("stream.wait_ms", 1e3*r.span("stream", "Source.WaitFor", -1, func() { ok = src.WaitFor(window) }))
	r.ops.check(ok, "source closed before timestep %d", window)
	r.set("stream.materialize_ms", 1e3*r.span("stream", "Source.Materialize", -1, func() { _, err = src.Materialize(0, window) }))
	if err != nil {
		return err
	}
	r.set("stream.release_us", 1e6*r.span("stream", "Source.Release", -1, func() { src.Release(advance) }))
	return nil
}
