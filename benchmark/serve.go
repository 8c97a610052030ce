package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pgti"
)

const (
	serveReplicas = 2
	// closedCallers each wait for their reply before sending again. They
	// are parked goroutines, not threads: the 2 replicas bound the compute,
	// and 8 are what the default MaxBatch of 8 needs to coalesce at all.
	closedCallers = 8
	// openRate is the open-loop arrival rate in requests per second: about
	// an eighth of the closed-loop capacity measured on the sandbox, so the
	// queue does not grow, latency is not a backlog measurement, and a host
	// stall of half a second does not fill the default queue of 32.
	openRate = 40.0
	// lateLimit is how far behind its schedule the generator may send
	// before the run says so. The generator only falls behind when the
	// whole process is stalled (the shared host pausing the VM); latency is
	// timed from the due time, so the stall still counts against the
	// server, and the phase is reported, not discarded or failed.
	lateLimit = 100 * time.Millisecond
	// Shares of the measuring time: closed loop and open loop, taken in
	// serveSlices alternating slices so that both sample the whole run.
	closedShare, openShare = 0.35, 0.65
	serveSlices            = 6
	// serveBootstraps is how many times serve-mix and stream-ddp2 set up
	// (fit + server) from scratch; set-up time is their calm median. With
	// three, two slow ones in a run moved serve-mix's training metrics,
	// which rest on nothing else, by 40 %.
	serveBootstraps = 5
	// sampledForecasts of the open-loop phase are checked against the
	// serial Predictor, bitwise.
	sampledForecasts = 32
)

// bootstrap fits a fresh experiment and puts it behind a new server,
// repeatedly; it returns the last server with its experiment and one train
// unit per repetition, whose setupS covers fit and server construction. A
// traced run bootstraps twice, the second time traced.
func (r *run) bootstrap(extra ...pgti.ServeOption) (*pgti.Server, *pgti.Experiment, []trainUnit, error) {
	n := serveBootstraps
	switch {
	case r.cfg.trace:
		n = 2
	case r.cfg.quick, r.cfg.curveOnly:
		n = 1
	}
	var srv *pgti.Server
	var exp *pgti.Experiment
	var units []trainUnit
	for i := 0; i < n; i++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		var u trainUnit
		var err error
		if exp, u, err = r.fitOnce(r.cfg.trace && i%2 == 1); err != nil {
			return nil, nil, nil, err
		}
		opts := append([]pgti.ServeOption{pgti.WithReplicas(serveReplicas)}, extra...)
		if srv, err = pgti.NewServer(exp, opts...); err != nil {
			return nil, nil, nil, err
		}
		u.setupS = time.Since(t0).Seconds()
		u.rounds[0].wallS = u.setupS
		units = append(units, u)
	}
	return srv, exp, units, nil
}

func setupTimes(units []trainUnit) []float64 {
	s := make([]float64, len(units))
	for i, u := range units {
		s[i] = u.setupS
	}
	return s
}

// runServeMix is the serving workload: a closed loop for capacity, then an
// open loop at a fixed rate for latency.
func runServeMix(r *run) error {
	var opts []pgti.ServeOption
	if r.cfg.trace {
		opts = append(opts, pgti.WithServeTrace(pgti.NewTraceRecorder()))
	}
	srv, exp, units, err := r.bootstrap(opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	r.reportTraining(units, r.fit.epochs)
	if r.cfg.curveOnly {
		return nil
	}
	pred, err := exp.Predictor()
	if err != nil {
		return err
	}
	windows := makeWindows(r.cfg.seed, 64, srv.Horizon(), srv.Nodes(), srv.Features())
	ctx := context.Background()

	var qps []float64
	var lat [][]float64 // open-loop latencies, slice by slice
	var closed, open serveCount
	var forecasts []pgti.Forecast // the first open-loop replies, checked below
	var maxLate time.Duration
	late, sent := 0, 0
	for k := 0; k < serveSlices; k++ {
		// Closed loop: each caller waits for its reply before sending again.
		before := srv.Stats()
		var next, done, failed atomic.Int64
		var wg sync.WaitGroup
		begin := time.Now()
		deadline := begin.Add(r.share(closedShare) / serveSlices)
		for c := 0; c < closedCallers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(next.Add(1))
					f, err := srv.Predict(ctx, windows[i%len(windows)])
					if err != nil || !validForecast(f, srv.Horizon(), srv.Nodes()) {
						failed.Add(1)
					}
					done.Add(1)
				}
			}()
		}
		wg.Wait()
		qps = append(qps, float64(done.Load())/time.Since(begin).Seconds())
		mid := srv.Stats()
		closed.add(before, mid)

		// Open loop: sends follow the schedule whatever the server does, and
		// every request is timed from when it was due.
		due := poissonSchedule(r.cfg.seed+uint64(k), openRate, r.share(openShare)/serveSlices)
		sliceLat := make([]float64, len(due))
		replies := make([]pgti.Forecast, len(due))
		begin = time.Now()
		for i, d := range due {
			at := begin.Add(d)
			time.Sleep(time.Until(at))
			behind := time.Since(at)
			maxLate = max(maxLate, behind)
			if behind > lateLimit {
				late++
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, err := srv.Predict(ctx, windows[i%len(windows)])
				sliceLat[i] = time.Since(at).Seconds() * 1e3
				if err != nil || !validForecast(f, srv.Horizon(), srv.Nodes()) {
					failed.Add(1)
				}
				replies[i] = f
			}()
		}
		wg.Wait()
		sent += len(due)
		r.ops.attempt(int(done.Load()) + len(due))
		r.ops.failed += int(failed.Load())
		open.add(mid, srv.Stats())
		lat = append(lat, sliceLat)
		if k == 0 {
			forecasts = replies[:min(sampledForecasts, len(replies))]
		}
	}
	if late > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: the open-loop generator sent %d of %d requests over %v late (worst %v): the process was stalled; latencies run from the due times and include it\n", late, sent, lateLimit, maxLate)
	}
	for i, f := range forecasts {
		want, err := pred.Predict(windows[i%len(windows)])
		r.ops.check(err == nil && slices.Equal(f.Pred, want.Pred), "served forecast %d differs from the serial Predictor's", i)
	}
	p50, p95 := r.percentiles(calmSamples(lat))
	st := srv.Stats()

	if !r.cfg.trace {
		r.set("setup_s", calm(setupTimes(units), false))
		r.set("predict_qps", calm(qps, true))
		r.set("predict_p50_ms", p50)
		r.set("predict_p95_ms", p95)
		r.reportProcess()
		return nil
	}
	r.reportProcess()
	r.reportUnitLayers(units)
	serial, _ := r.serialPredict(pred, windows, minPercentileCalls)
	r.set("core.predict_serial_ms", median(serial))
	r.set("core.forward_batch8_ms", r.forwardBatch8(pred, windows))
	r.set("serve.mean_batch_closed", closed.meanBatch())
	r.set("serve.mean_batch_open", open.meanBatch())
	r.set("serve.queue_overhead_ms", p50-median(serial))
	all := slices.Concat(lat...)
	if p99, err := percentile(all, 99); err == nil {
		r.set("serve.predict_p99_ms", p99)
	} else {
		r.set("serve.predict_p99_ms", slices.Max(all)) // too few samples for a p99: the maximum stands in
	}
	r.set("serve.shed", float64(st.Shed))
	r.set("serve.retries", float64(st.Retries))
	r.set("serve.gen_late_ms_max", maxLate.Seconds()*1e3)
	r.set("serve.swap_ms", r.swapMS(srv, exp))
	return r.replay(units)
}

// serveCount accumulates the server's completed requests and dispatched
// batches over the phases of one kind.
type serveCount struct{ completed, batches int64 }

func (c *serveCount) add(before, after pgti.ServeStats) {
	c.completed += after.Completed - before.Completed
	c.batches += after.Batches - before.Batches
}

func (c serveCount) meanBatch() float64 {
	if c.batches == 0 {
		return 0
	}
	return float64(c.completed) / float64(c.batches)
}

// swapMS is the median time of installing exp's weights into the server.
func (r *run) swapMS(srv *pgti.Server, exp *pgti.Experiment) float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		var err error
		ms = append(ms, 1e3*r.span("serve", "Server.Swap", -1, func() { err = srv.Swap(exp) }))
		r.ops.check(err == nil, "Swap: %v", err)
	}
	return median(ms)
}
