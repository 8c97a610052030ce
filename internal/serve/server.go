// Package serve is the asynchronous forecast service over a fitted run: a
// coalescing batch queue in front of a replica pool. It only queues and
// forwards and holds no weights: what model a replica's Backend runs, and
// how a retrained one replaces it, is the caller's business.
//
// Concurrent Predict calls arriving within a batch window coalesce into one
// BMM-shaped forward of up to MaxBatch windows. Every forward-path kernel
// accumulates each output element independently of sibling batch rows, so a
// coalesced request's forecast is bitwise identical to the same window
// through a serial core.Predictor — batching changes latency and throughput,
// never bits.
//
// Throughput and latency are accounted under the repo's virtual clock: each
// dispatched batch is priced by a CostModel (weights streamed once per
// launch plus a per-window term, so batching amortizes the launch), request
// latency is completion minus virtual arrival, and QPS is completions over
// virtual elapsed time. Real goroutine scheduling decides who coalesces with
// whom; the modeled numbers for a given batch sequence are deterministic.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgti/internal/core"
	"pgti/internal/device"
	"pgti/internal/trace"
)

// Backend is what a replica forwards on. *core.InferCore implements it;
// tests substitute stubs.
type Backend interface {
	// ForwardBatch runs one forward over the windows and returns one
	// Forecast per window, in order.
	ForwardBatch(ws []core.Window) ([]core.Forecast, error)
}

// CostModel prices one forward launch of a batch of b windows in modeled
// (virtual) time. It must be monotone in b and pure.
type CostModel func(b int) time.Duration

// DefaultCost models a launch as streaming the parameters over PCIe once
// (the fixed cost batching amortizes) plus one window transfer per sample.
func DefaultCost(paramBytes, windowBytes int64) CostModel {
	gpu := device.NewGPU("serve", 0)
	launch := gpu.TransferTime(paramBytes)
	perWindow := gpu.TransferTime(windowBytes)
	return func(b int) time.Duration {
		return launch + time.Duration(b)*perWindow
	}
}

// Config sizes the queue and the pool. The zero value of any field is
// replaced by its default in New.
type Config struct {
	// MaxBatch caps how many queued requests one forward coalesces.
	// Default 8.
	MaxBatch int
	// Window is how long (real time) the collector holds the first request
	// of a forming batch open for stragglers before dispatching short.
	// Default 2ms.
	Window time.Duration
	// QueueDepth caps admitted-but-undispatched requests; beyond it,
	// Predict sheds with *OverloadedError. Default 4*MaxBatch.
	QueueDepth int
	// Deadline, when positive, bounds each Predict call (the request's
	// context is wrapped with this timeout). Default 0 (no deadline).
	Deadline time.Duration
	// Cost prices a batch forward in virtual time. Required (the public
	// constructor derives one from the model when the caller does not).
	Cost CostModel
	// Interarrival, when positive, switches the virtual-clock accounting
	// to a modeled open-loop arrival process: the n-th admitted request is
	// stamped with arrival time n*Interarrival instead of the clock's
	// current value. Latency and QPS then measure the pool against a fixed
	// offered load, independent of how the host scheduler interleaves the
	// real callers — benchmarks use this for reproducible numbers.
	// Default 0 (requests arrive when the clock says they do).
	Interarrival time.Duration
	// RetryBackoff is the modeled delay before a batch whose replica
	// failed is retried on a healthy one: the k-th retry of one batch
	// waits RetryBackoff·2^(k-1), capped at 2^6 times the base. Purely
	// virtual — the retry dispatches immediately in real time and only the
	// modeled start shifts. Default 1ms.
	RetryBackoff time.Duration
	// Trace, when non-nil, records per-replica forward spans (one per
	// dispatched batch), per-request queue-wait spans, and serving
	// counters (shed count, queue-depth high-water) into the recorder.
	// Nil disables tracing; the traced serving numbers are identical to
	// the untraced ones.
	Trace *trace.Recorder
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.Cost == nil {
		c.Cost = DefaultCost(1<<20, 1<<14)
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
}

// Stats is a point-in-time snapshot of the server's modeled serving
// metrics. Latencies and QPS are virtual-clock quantities: deterministic
// for a given sequence of batches, independent of host speed.
type Stats struct {
	Completed int64         // requests answered
	Batches   int64         // forwards dispatched
	Shed      int64         // requests rejected with *OverloadedError
	MeanBatch float64       // Completed / Batches
	P50       time.Duration // modeled request latency, 50th percentile
	P99       time.Duration // modeled request latency, 99th percentile
	Virtual   time.Duration // modeled elapsed serving time
	QPS       float64       // Completed / Virtual
	Replicas  int           // healthy replicas still in the dispatch pool

	// Retries counts batches redispatched to a healthy replica after their
	// original replica failed; EvictedReplicas counts replicas removed from
	// the pool by such failures. The pool degrades down to one replica
	// before a failure is surfaced to callers: the last healthy replica is
	// never evicted, its errors are delivered instead.
	Retries         int64
	EvictedReplicas int

	// SampledRequests is how many latency samples back the percentiles:
	// the ring holds the most recent max(4096, 4*QueueDepth) completions,
	// so a burst larger than the ring still keeps enough tail to cover
	// everything that could have been in flight at once.
	SampledRequests int64
	// DroppedSamples counts completions whose latency fell out of the
	// ring. When positive, P50/P99 describe only the most recent
	// SampledRequests completions, not the whole run.
	DroppedSamples int64
}

type response struct {
	f   core.Forecast
	err error
}

type request struct {
	w         core.Window
	varrival  time.Duration // virtual clock at admission
	done      chan response // buffered; collector never blocks on it
	cancelled atomic.Bool   // caller gave up (ctx done); skip at dispatch
}

// replica is one pool slot: a backend plus its virtual busy accounting.
type replica struct {
	backend  Backend
	busy     bool          // a batch is currently running on it
	dead     bool          // evicted after a backend failure; never redispatched
	vfree    time.Duration // virtual time its latest batch completes
	busyWork time.Duration // cumulative modeled busy time (dispatch key)
	tw       *trace.Worker // nil when tracing is off
}

// Server is the goroutine-safe serving front end. Construct with New, issue
// requests with Predict, and shut down with Close. All methods are safe for
// concurrent use.
type Server struct {
	cfg      Config
	replicas []*replica

	mu       sync.Mutex
	queue    []*request
	closed   bool
	vnow     time.Duration // virtual clock: max completion time so far
	arrivals int64         // admitted requests (drives Interarrival stamps)

	// Latency ring for percentile estimates (most recent ringCap).
	lat     []time.Duration
	latPos  int
	ringCap int

	completed int64
	batches   int64
	shed      int64
	retries   int64
	evicted   int
	queueHigh int // deepest the queue has been (trace gauge)

	wake        chan struct{} // pings the collector on enqueue
	replicaFree chan struct{} // pings acquireReplica on batch completion
	closeCh     chan struct{}
	closeOnce   sync.Once
	drained     chan struct{} // closed when the collector has fully drained
	inflight    sync.WaitGroup
}

// latRingCap is the floor on the latency ring. The actual ring is sized
// max(latRingCap, 4*QueueDepth) so a deep queue cannot silently rotate
// in-flight samples out before Stats reads them.
const latRingCap = 4096

// New builds a Server over a non-empty replica pool. cfg zero values are
// defaulted (see Config); the collector goroutine starts immediately.
func New(backends []Backend, cfg Config) *Server {
	if len(backends) == 0 {
		panic("serve: New needs at least one backend")
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:         cfg,
		ringCap:     latRingCap,
		wake:        make(chan struct{}, 1),
		replicaFree: make(chan struct{}, len(backends)),
		closeCh:     make(chan struct{}),
		drained:     make(chan struct{}),
	}
	if c := 4 * cfg.QueueDepth; c > s.ringCap {
		s.ringCap = c
	}
	for i, b := range backends {
		cfg.Trace.NameWorker(i, fmt.Sprintf("serve replica %d", i))
		s.replicas = append(s.replicas, &replica{backend: b, tw: cfg.Trace.Worker(i)})
	}
	go s.collector()
	return s
}

// Predict submits one window and blocks until its forecast is ready, the
// context (bounded by Config.Deadline when set) ends, or the server is
// closed/overloaded. A coalesced result is bitwise identical to a serial
// Predictor.Predict of the same window.
func (s *Server) Predict(ctx context.Context, w core.Window) (core.Forecast, error) {
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	req := &request{w: w, done: make(chan response, 1)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return core.Forecast{}, ErrServerClosed
	}
	if depth := len(s.queue); depth >= s.cfg.QueueDepth {
		s.shed++
		pool := s.healthyLocked()
		s.mu.Unlock()
		return core.Forecast{}, &OverloadedError{
			QueueDepth: depth,
			RetryAfter: s.retryHint(depth, pool),
		}
	}
	if s.cfg.Interarrival > 0 {
		req.varrival = time.Duration(s.arrivals) * s.cfg.Interarrival
	} else {
		req.varrival = s.vnow
	}
	s.arrivals++
	s.queue = append(s.queue, req)
	if d := len(s.queue); d > s.queueHigh {
		s.queueHigh = d
	}
	s.mu.Unlock()

	select {
	case s.wake <- struct{}{}:
	default:
	}

	select {
	case resp := <-req.done:
		return resp.f, resp.err
	case <-ctx.Done():
		req.cancelled.Store(true)
		return core.Forecast{}, ctx.Err()
	}
}

// retryHint models the time the present backlog needs to clear: the batches
// it forms, each priced at a full-batch launch, spread across the healthy
// pool.
func (s *Server) retryHint(depth, pool int) time.Duration {
	batches := (depth + s.cfg.MaxBatch - 1) / s.cfg.MaxBatch
	return time.Duration(batches) * s.cfg.Cost(s.cfg.MaxBatch) / time.Duration(pool)
}

// healthyLocked counts replicas still in the dispatch pool. Caller holds
// s.mu. Never zero: the last healthy replica is never evicted.
func (s *Server) healthyLocked() int {
	n := 0
	for _, r := range s.replicas {
		if !r.dead {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the modeled serving metrics.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Completed:       s.completed,
		Batches:         s.batches,
		Shed:            s.shed,
		Virtual:         s.vnow,
		Replicas:        s.healthyLocked(),
		Retries:         s.retries,
		EvictedReplicas: s.evicted,
	}
	if s.batches > 0 {
		st.MeanBatch = float64(s.completed) / float64(s.batches)
	}
	if s.vnow > 0 {
		st.QPS = float64(s.completed) / s.vnow.Seconds()
	}
	st.SampledRequests = int64(len(s.lat))
	st.DroppedSamples = s.completed - st.SampledRequests
	if len(s.lat) > 0 {
		sorted := append([]time.Duration(nil), s.lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.P50 = percentile(sorted, 50)
		st.P99 = percentile(sorted, 99)
	}
	return st
}

// percentile reads the nearest-rank p-th percentile from a sorted slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// Close stops admission (subsequent Predicts return ErrServerClosed),
// drains every already-admitted request through the pool, waits for
// in-flight batches, and returns. Safe to call multiple times; all calls
// block until the drain completes.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.closeCh)
	})
	<-s.drained
	return nil
}

// collector is the single goroutine that forms batches: it waits for a
// pending request, holds the batch open for up to Config.Window of real
// time (or until MaxBatch requests queue), acquires the least-loaded free
// replica, and only then dequeues and launches — requests stay queued (and
// count against QueueDepth) until a replica can actually run them. On Close
// it skips the window wait and drains the queue at full speed.
func (s *Server) collector() {
	defer close(s.drained)
	for {
		if !s.waitPending() {
			break
		}
		timerFired := s.waitFill()
		r := s.acquireReplica()
		batch := s.takeBatch()
		if len(batch) == 0 {
			// Every queued member was cancelled while waiting.
			s.releaseReplica(r)
			continue
		}
		s.launch(r, batch, timerFired)
	}
	s.inflight.Wait()
	s.emitTrace()
}

// emitTrace flushes the end-of-run serving counters into the recorder.
// Runs exactly once, after the drain, so the values are final.
func (s *Server) emitTrace() {
	if s.cfg.Trace == nil {
		return
	}
	s.mu.Lock()
	shed, high := s.shed, s.queueHigh
	retries, evicted := s.retries, s.evicted
	s.mu.Unlock()
	s.cfg.Trace.Add("serve.shed", shed)
	s.cfg.Trace.Gauge("serve.queue.highwater", int64(high))
	if retries > 0 {
		s.cfg.Trace.Add("serve.retries", retries)
	}
	if evicted > 0 {
		s.cfg.Trace.Add("serve.evicted", int64(evicted))
	}
}

// waitPending blocks until the queue is non-empty (true) or the server is
// closed with an empty queue (false).
func (s *Server) waitPending() bool {
	for {
		s.mu.Lock()
		n, closed := len(s.queue), s.closed
		s.mu.Unlock()
		if n > 0 {
			return true
		}
		if closed {
			return false
		}
		select {
		case <-s.wake:
		case <-s.closeCh:
		}
	}
}

// waitFill holds the forming batch open until MaxBatch requests queue, the
// batch window expires, or the server closes. timerFired reports window
// expiry — the modeled start time then includes the wait.
func (s *Server) waitFill() (timerFired bool) {
	s.mu.Lock()
	n, closed := len(s.queue), s.closed
	s.mu.Unlock()
	if n >= s.cfg.MaxBatch || closed {
		return false
	}
	timer := time.NewTimer(s.cfg.Window)
	defer timer.Stop()
	for {
		s.mu.Lock()
		n, closed = len(s.queue), s.closed
		s.mu.Unlock()
		if n >= s.cfg.MaxBatch || closed {
			return false
		}
		select {
		case <-timer.C:
			return true
		case <-s.wake:
		case <-s.closeCh:
		}
	}
}

// takeBatch removes up to MaxBatch requests from the queue head, dropping
// members whose callers already cancelled.
func (s *Server) takeBatch() (batch []*request) {
	s.mu.Lock()
	take := len(s.queue)
	if take > s.cfg.MaxBatch {
		take = s.cfg.MaxBatch
	}
	for _, rq := range s.queue[:take] {
		if !rq.cancelled.Load() {
			batch = append(batch, rq)
		}
	}
	s.queue = append(s.queue[:0], s.queue[take:]...)
	s.mu.Unlock()
	return batch
}

// acquireReplica blocks until a replica is free and claims the one with the
// least cumulative modeled busy time (ties break on pool order).
func (s *Server) acquireReplica() *replica {
	for {
		s.mu.Lock()
		var best *replica
		for _, r := range s.replicas {
			if r.busy || r.dead {
				continue
			}
			if best == nil || r.busyWork < best.busyWork {
				best = r
			}
		}
		if best != nil {
			best.busy = true
			s.mu.Unlock()
			return best
		}
		s.mu.Unlock()
		<-s.replicaFree
	}
}

// releaseReplica frees a claimed replica without running anything on it
// (the formed batch turned out to be fully cancelled).
func (s *Server) releaseReplica(r *replica) {
	s.mu.Lock()
	r.busy = false
	s.mu.Unlock()
	select {
	case s.replicaFree <- struct{}{}:
	default:
	}
}

// launch runs the batch on the claimed replica in its own goroutine. On
// completion it settles the virtual accounting — modeled start is the
// latest of the batch's arrivals, the window expiry (when the timer forced
// dispatch), and the replica's previous completion — advances the clock,
// frees the replica, and delivers every response.
//
// A backend failure is a replica failure: the replica is evicted from the
// pool and the batch retried on a healthy one, its modeled start pushed by
// an exponential backoff — unless the failed replica is the pool's last,
// which is kept (degraded service beats none) and the error delivered to
// the batch's callers. Retries run inside this goroutine, so Close's drain
// waits for them; the backoff is purely virtual, never slept.
func (s *Server) launch(r *replica, batch []*request, timerFired bool) {
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		ws := make([]core.Window, len(batch))
		for i, rq := range batch {
			ws[i] = rq.w
		}
		floor := s.batchStart(batch, timerFired)
		var backoff time.Duration // cumulative modeled retry delay
		for attempt := 0; ; attempt++ {
			fs, err := r.backend.ForwardBatch(ws)
			if err != nil && s.evict(r, floor+backoff, attempt) {
				backoff += s.retryDelay(attempt)
				r = s.acquireReplica()
				continue
			}
			s.settle(r, batch, floor+backoff, fs, err)
			return
		}
	}()
}

// batchStart is the modeled dispatch floor of a batch before replica
// availability: the latest virtual arrival, pushed to the window expiry when
// the timer forced a short dispatch. Pure — arrival stamps are immutable
// after admission, so no lock is needed.
func (s *Server) batchStart(batch []*request, timerFired bool) time.Duration {
	vstart := batch[0].varrival
	for _, rq := range batch[1:] {
		if rq.varrival > vstart {
			vstart = rq.varrival
		}
	}
	if timerFired {
		if t := batch[0].varrival + s.cfg.Window; t > vstart {
			vstart = t
		}
	}
	return vstart
}

// retryDelay is the modeled backoff charged before retry number attempt+1
// of one batch: RetryBackoff doubled per retry, capped at 2^6 the base.
func (s *Server) retryDelay(attempt int) time.Duration {
	shift := uint(attempt)
	if shift > 6 {
		shift = 6
	}
	return s.cfg.RetryBackoff << shift
}

// evict handles a backend failure on r. With at least one other healthy
// replica in the pool, r is marked dead (it leaves dispatch for good), the
// retry counters advance, and a fault span records the failure at the
// attempt's modeled start for the backoff's duration; the caller then
// redispatches. Returns false when r is the last healthy replica — the pool
// degrades rather than sheds: r stays, and the caller delivers the error.
func (s *Server) evict(r *replica, vfail time.Duration, attempt int) bool {
	delay := s.retryDelay(attempt)
	s.mu.Lock()
	if s.healthyLocked() <= 1 {
		s.mu.Unlock()
		return false
	}
	r.dead = true
	r.busy = false
	s.evicted++
	s.retries++
	if r.vfree > vfail {
		vfail = r.vfree
	}
	if r.tw != nil {
		r.tw.Span(trace.KindFault, "replica failed", trace.StreamForward, vfail, delay, 0)
	}
	s.mu.Unlock()
	return true
}

// settle finishes a batch on replica r: charges the modeled cost from the
// given dispatch floor (batch arrivals plus any retry backoff), advances the
// clock, frees the replica, and delivers every response.
func (s *Server) settle(r *replica, batch []*request, floor time.Duration, fs []core.Forecast, err error) {
	cost := s.cfg.Cost(len(batch))

	s.mu.Lock()
	vstart := floor
	if r.vfree > vstart {
		vstart = r.vfree
	}
	vend := vstart + cost
	r.vfree = vend
	r.busyWork += cost
	r.busy = false
	if vend > s.vnow {
		s.vnow = vend
	}
	for _, rq := range batch {
		s.recordLatency(vend - rq.varrival)
	}
	s.completed += int64(len(batch))
	s.batches++
	if r.tw != nil {
		for _, rq := range batch {
			r.tw.AsyncSpan(trace.KindQueue, "queue.wait", trace.StreamQueue, rq.varrival, vstart-rq.varrival, 0)
		}
		r.tw.Span(trace.KindForward, fmt.Sprintf("forward b%d", len(batch)), trace.StreamForward, vstart, cost, 0)
	}
	s.mu.Unlock()

	select {
	case s.replicaFree <- struct{}{}:
	default:
	}

	for i, rq := range batch {
		if err != nil {
			rq.done <- response{err: err}
		} else {
			rq.done <- response{f: fs[i]}
		}
	}
}

// recordLatency appends to the percentile ring. Caller holds s.mu.
func (s *Server) recordLatency(d time.Duration) {
	if len(s.lat) < s.ringCap {
		s.lat = append(s.lat, d)
		return
	}
	s.lat[s.latPos] = d
	s.latPos = (s.latPos + 1) % s.ringCap
}
