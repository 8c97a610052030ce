package pgti

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"pgti/internal/core"
	"pgti/internal/serve"
)

// Serving: the asynchronous forecast service over a fitted Experiment.
//
//	exp, _ := pgti.NewExperiment("PeMS-BAY", pgti.WithEpochs(20))
//	exp.Fit(ctx)
//	srv, _ := pgti.NewServer(exp, pgti.WithReplicas(2), pgti.WithMaxBatch(8))
//	defer srv.Close()
//	f, err := srv.Predict(ctx, window)   // from any number of goroutines
//	...
//	exp2.Fit(ctx)                        // retrain while serving
//	srv.Swap(exp2)                       // atomic model swap, no drain
//
// Concurrent Predict calls coalesce into batched forwards; each result is
// bitwise identical to the Predictor of the experiment last swapped in
// (before any Swap, the one NewServer was built over).

// ErrServerClosed is returned by Server.Predict after Close. Requests
// admitted before Close still drain to completion.
var ErrServerClosed = serve.ErrServerClosed

// OverloadedError is the typed load-shed signal from a full admission
// queue; it carries the queue depth and a modeled retry hint. Unwrap with
// errors.As.
type OverloadedError = serve.OverloadedError

// ServeStats is a snapshot of a Server's modeled serving metrics (p50/p99
// latency, QPS and elapsed time under the virtual clock, batch and shed
// counters).
type ServeStats = serve.Stats

// CostModel prices one batched forward launch in modeled (virtual) time as
// a function of batch size. The default streams the parameters once per
// launch plus one window transfer per sample over the modeled PCIe link.
type CostModel = serve.CostModel

// serverSpec is what a ServeOption writes: the queue configuration exactly
// as serve.New reads it, plus the two values NewServer spends building the
// replica pool it hands over.
type serverSpec struct {
	serve.Config
	replicas  int
	failAfter map[int]int // replica -> first failing forward (WithReplicaFailure)
}

// ServeOption configures NewServer.
type ServeOption func(*serverSpec)

// WithMaxBatch caps how many concurrent Predict calls coalesce into one
// batched forward (default 8).
func WithMaxBatch(n int) ServeOption {
	return func(c *serverSpec) { c.MaxBatch = n }
}

// WithBatchWindow sets how long the server holds a forming batch open for
// stragglers before dispatching short (default 2ms). Larger windows trade
// latency for bigger batches.
func WithBatchWindow(d time.Duration) ServeOption {
	return func(c *serverSpec) { c.Window = d }
}

// WithReplicas sets the pool size: n concurrency slots over the one served
// model, not copies of it, with least-loaded dispatch (default 1).
func WithReplicas(n int) ServeOption {
	return func(c *serverSpec) { c.replicas = n }
}

// WithQueueDepth caps admitted-but-undispatched requests; beyond it Predict
// sheds load with a typed *OverloadedError (default 4x max batch).
func WithQueueDepth(n int) ServeOption {
	return func(c *serverSpec) { c.QueueDepth = n }
}

// WithDeadline bounds every Predict call: requests still queued or in
// flight when the deadline lapses return context.DeadlineExceeded (default
// none).
func WithDeadline(d time.Duration) ServeOption {
	return func(c *serverSpec) { c.Deadline = d }
}

// WithCostModel overrides the modeled per-batch forward cost used for the
// virtual-clock latency/QPS accounting and the overload retry hint.
// Deterministic tests and benches pin explicit costs with this.
func WithCostModel(m CostModel) ServeOption {
	return func(c *serverSpec) { c.Cost = m }
}

// WithArrivalProcess switches the virtual-clock accounting to a modeled
// open-loop arrival stream: the n-th admitted request is stamped as arriving
// at n*d, so p50/p99/QPS measure the pool against a fixed offered load
// (1/d requests per second) independent of host scheduling. The gated
// serving benchmarks pin their numbers with this.
func WithArrivalProcess(d time.Duration) ServeOption {
	return func(c *serverSpec) { c.Interarrival = d }
}

// WithServeRetryBackoff sets the modeled delay before a batch whose replica
// failed is retried on a healthy one; the k-th retry of one batch waits
// d·2^(k-1), capped at 2^6 times the base (default 1ms). Purely virtual —
// retries dispatch immediately in real time, only the modeled start shifts.
func WithServeRetryBackoff(d time.Duration) ServeOption {
	return func(c *serverSpec) { c.RetryBackoff = d }
}

// WithReplicaFailure arms deterministic failure injection on one replica:
// its failAfter-th batched forward (zero-based) and every later one fail,
// so the server evicts it from the pool and retries the affected batch on a
// healthy replica under the modeled backoff (Stats.Retries and
// Stats.EvictedReplicas count the fallout). The per-replica call counter —
// not wall time — is the trigger, so a fixed request schedule reproduces
// the same eviction sequence run to run. The pool degrades down to one
// replica before errors reach callers: the last healthy replica is never
// evicted. The chaos harness and the failover benchmark use this;
// production pools leave it unset.
func WithReplicaFailure(replica, failAfter int) ServeOption {
	return func(c *serverSpec) {
		if c.failAfter == nil {
			c.failAfter = make(map[int]int)
		}
		c.failAfter[replica] = failAfter
	}
}

// Server is the goroutine-safe serving front end over a fitted Experiment:
// a coalescing batch queue feeding a replica pool. The replicas are
// concurrency slots over one served model, not model copies. Construct with
// NewServer; Close when done.
type Server struct {
	srv  *serve.Server
	live *served
}

// served is the backend every replica forwards through: the one mutable
// reference to the served model. A batch loads the pointer once, so it runs
// whole on one core; install replaces the core with a single store.
type served struct {
	atomic.Pointer[core.InferCore]
}

func (s *served) ForwardBatch(ws []core.Window) ([]core.Forecast, error) {
	return s.Load().ForwardBatch(ws)
}

// NewServer builds a serving handle over exp, which must have completed
// Fit (wraps ErrNotFitted otherwise). The pool serves one private clone of
// the fitted model whatever its size, so a later exp.Fit (retrain) never
// races serving; install retrained weights explicitly with Swap.
func NewServer(exp *Experiment, opts ...ServeOption) (*Server, error) {
	c := &serverSpec{}
	for _, opt := range opts {
		opt(c)
	}
	if c.replicas == 0 {
		c.replicas = 1
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("pgti: %w", err)
	}
	ic, err := exp.eng.NewInferCore()
	if err != nil {
		return nil, fmt.Errorf("pgti: %w", err)
	}
	live := &served{}
	live.Store(ic)
	backends := make([]serve.Backend, c.replicas)
	for i := range backends {
		backends[i] = live
		if n, ok := c.failAfter[i]; ok {
			backends[i] = serve.NewFlaky(live, n)
		}
	}
	if c.Cost == nil {
		windowBytes := int64(ic.Horizon()*ic.Nodes()*ic.Features()) * 8
		c.Cost = serve.DefaultCost(ic.ParamBytes(), windowBytes)
	}
	return &Server{srv: serve.New(backends, c.Config), live: live}, nil
}

func (c *serverSpec) validate() error {
	invalid := func(field, format string, args ...any) error {
		return &InvalidConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if c.MaxBatch < 0 {
		return invalid("MaxBatch", "max batch %d must be positive", c.MaxBatch)
	}
	if c.replicas < 0 {
		return invalid("Replicas", "replica count %d must be positive", c.replicas)
	}
	if c.QueueDepth < 0 {
		return invalid("QueueDepth", "queue depth %d must be positive", c.QueueDepth)
	}
	if c.Window < 0 {
		return invalid("BatchWindow", "batch window %v must not be negative", c.Window)
	}
	if c.Deadline < 0 {
		return invalid("Deadline", "deadline %v must not be negative", c.Deadline)
	}
	if c.Interarrival < 0 {
		return invalid("ArrivalProcess", "interarrival %v must not be negative", c.Interarrival)
	}
	if c.RetryBackoff < 0 {
		return invalid("ServeRetryBackoff", "retry backoff %v must not be negative", c.RetryBackoff)
	}
	for r, n := range c.failAfter {
		if r < 0 || r >= c.replicas {
			return invalid("ReplicaFailure", "replica %d outside the pool of %d", r, c.replicas)
		}
		if n < 0 {
			return invalid("ReplicaFailure", "fail-after %d must be >= 0", n)
		}
	}
	return nil
}

// Predict submits one raw window and blocks until its forecast is ready,
// ctx (bounded by WithDeadline) ends, the server is closed
// (ErrServerClosed), or the queue is full (*OverloadedError). Safe for any
// number of concurrent callers; coalesced results are bitwise identical to
// serial Predictor.Predict calls.
func (s *Server) Predict(ctx context.Context, w Window) (Forecast, error) {
	return s.srv.Predict(ctx, w)
}

// Swap replaces the served model with a private clone of exp's fitted one
// — its parameters together with its training split's normalization
// statistics — without draining: in-flight batches finish on the old model,
// later ones run whole on the new. exp must have completed Fit and take the
// same windows with the same parameter shapes as the served model;
// otherwise Swap returns an error and the old model keeps serving.
func (s *Server) Swap(exp *Experiment) error {
	if err := s.install(exp.eng); err != nil {
		return fmt.Errorf("pgti: %w", err)
	}
	return nil
}

// install is Swap's one path, shared with Stream.Retrain: clone eng's
// fitted model into a new core, check it can stand in for the live one, and
// store it.
func (s *Server) install(eng *core.Engine) error {
	next, err := eng.NewInferCore()
	if err != nil {
		return err
	}
	if err := core.CheckSwap(s.live.Load(), next); err != nil {
		return err
	}
	s.live.Store(next)
	return nil
}

// Stats returns a snapshot of the modeled serving metrics.
func (s *Server) Stats() ServeStats { return s.srv.Stats() }

// Close stops admission, drains already-admitted requests, waits for
// in-flight batches, and returns. Idempotent; concurrent calls all block
// until the drain completes.
func (s *Server) Close() error { return s.srv.Close() }

// Horizon returns the forecast length in time steps (input windows must be
// the same length).
func (s *Server) Horizon() int { return s.live.Load().Horizon() }

// Nodes returns the sensor count.
func (s *Server) Nodes() int { return s.live.Load().Nodes() }

// Features returns the per-node feature count of an input window.
func (s *Server) Features() int { return s.live.Load().Features() }
