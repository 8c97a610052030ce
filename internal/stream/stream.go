// Package stream adds online operation on top of the staged offline
// lifecycle: a Source ingests the spatiotemporal signal one timestep at a
// time into a bounded sliding-window ring, and a Retrainer periodically
// materializes the current window into a dataset, runs a warm-started Fit on
// it through the ordinary core.Engine, and pushes the refreshed parameters
// into a live serving pool.
//
// Determinism is the design center, as everywhere else in this codebase:
// timesteps come from the same incremental generator the offline
// dataset.Generate path is built on, arrivals advance a modeled ingest clock
// (a pure function of the timestep index), and a single-window replay of a
// materialized dataset reproduces the offline training curve bitwise.
package stream

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pgti/internal/dataset"
	"pgti/internal/graph"
	"pgti/internal/tensor"
)

// Options parameterizes a streaming source's ingestion.
type Options struct {
	// Window is the ring capacity in timesteps — the bounded history the
	// source retains. Must hold at least one training snapshot
	// (2*meta.Horizon timesteps). The producer never evicts an unreleased
	// timestep: backpressure, not data loss, is the overflow behavior.
	Window int
	// Interval is the modeled arrival spacing: ingesting timestep t advances
	// the ingest clock to (t+1)*Interval. Zero models an instantaneous
	// backfill.
	Interval time.Duration
	// Total caps ingestion (the stream ends after Total timesteps);
	// 0 ingests meta.Entries timesteps, matching the offline dataset.
	Total int
}

// Source is a bounded sliding-window ingestor over the generated signal.
// One background goroutine produces timesteps in order; consumers wait for
// arrivals, materialize window slices into ordinary datasets, and release
// history they no longer need. The producer never evicts an unreleased
// timestep — backpressure, not data loss, is the overflow behavior.
type Source struct {
	meta   dataset.Meta
	gen    *dataset.Generator
	opts   Options
	rowLen int

	mu       sync.Mutex
	cond     *sync.Cond
	ring     []float64 // opts.Window rows, slot for step t = t % Window
	lo, hi   int       // retained global timesteps are [lo, hi)
	released int       // timesteps below this may be evicted
	sum      float64   // running sum over retained values
	sumsq    float64   // running sum of squares over retained values
	closed   bool
	done     chan struct{}
}

// NewSource validates the options, seeds the incremental generator, and
// starts the ingest goroutine.
func NewSource(meta dataset.Meta, seed uint64, opts Options) (*Source, error) {
	if opts.Total == 0 {
		opts.Total = meta.Entries
	}
	if opts.Total < 0 {
		return nil, fmt.Errorf("stream: total %d timesteps", opts.Total)
	}
	if min := 2 * meta.Horizon; opts.Window < min {
		return nil, fmt.Errorf("stream: window %d cannot hold one %s snapshot (needs >= %d timesteps)", opts.Window, meta.Name, min)
	}
	if opts.Interval < 0 {
		return nil, fmt.Errorf("stream: negative arrival interval %v", opts.Interval)
	}
	gen, err := dataset.NewGenerator(meta, seed)
	if err != nil {
		return nil, err
	}
	s := &Source{
		meta:   meta,
		gen:    gen,
		opts:   opts,
		rowLen: gen.RowLen(),
		ring:   make([]float64, opts.Window*gen.RowLen()),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s, nil
}

// Graph returns the sensor graph shared by every window of the stream.
func (s *Source) Graph() *graph.Graph { return s.gen.Graph }

// Meta returns the stream's dataset metadata (the offline shape).
func (s *Source) Meta() dataset.Meta { return s.meta }

// Window returns the ring capacity in timesteps.
func (s *Source) Window() int { return s.opts.Window }

// Total returns the stream length in timesteps.
func (s *Source) Total() int { return s.opts.Total }

// run is the ingest goroutine: produce timesteps in order, blocking while
// the ring is full of unreleased history.
func (s *Source) run() {
	defer close(s.done)
	row := make([]float64, s.rowLen)
	for {
		s.mu.Lock()
		if s.hi >= s.opts.Total {
			s.mu.Unlock()
			return
		}
		for !s.closed && s.hi-s.lo >= s.opts.Window && s.released <= s.lo {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		if s.hi-s.lo >= s.opts.Window {
			// Window advance: evict the oldest timestep and renormalize the
			// window statistics exactly — re-summing the retained rows
			// instead of subtracting the evicted one, so the stats carry no
			// accumulated cancellation error however long the stream runs.
			s.lo++
			s.renormalize()
		}
		s.mu.Unlock()
		// The generator is owned by this goroutine; producing outside the
		// lock keeps consumers responsive during expensive steps.
		s.gen.Next(row)
		s.mu.Lock()
		copy(s.ring[(s.hi%s.opts.Window)*s.rowLen:], row)
		for _, v := range row {
			s.sum += v
			s.sumsq += v * v
		}
		s.hi++
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// renormalize recomputes the window statistics from the retained rows.
// Caller holds s.mu.
func (s *Source) renormalize() {
	s.sum, s.sumsq = 0, 0
	for t := s.lo; t < s.hi; t++ {
		row := s.ring[(t%s.opts.Window)*s.rowLen : (t%s.opts.Window+1)*s.rowLen]
		for _, v := range row {
			s.sum += v
			s.sumsq += v * v
		}
	}
}

// WaitFor blocks until timestep `step` has arrived (hi >= step), returning
// false if the source closes or the stream ends first.
func (s *Source) WaitFor(step int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.hi < step && !s.closed && !(s.hi >= s.opts.Total) {
		s.cond.Wait()
	}
	return s.hi >= step
}

// Release marks every timestep below `before` evictable, unblocking the
// producer when it is waiting on a full ring.
func (s *Source) Release(before int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if before > s.released {
		s.released = before
		s.cond.Broadcast()
	}
}

// Retained returns the currently retained timestep range [lo, hi).
func (s *Source) Retained() (lo, hi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lo, s.hi
}

// IngestClock returns the modeled arrival clock: timesteps ingested times
// the arrival interval. Deterministic — a pure function of progress, never
// of wall time.
func (s *Source) IngestClock() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.hi) * s.opts.Interval
}

// Stats returns the mean and standard deviation over the retained window's
// values — the online counterparts of the z-score statistics the offline
// preprocessing computes over the full dataset.
func (s *Source) Stats() (mean, std float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := float64((s.hi - s.lo) * s.rowLen)
	if n == 0 {
		return 0, 0
	}
	mean = s.sum / n
	varr := s.sumsq/n - mean*mean
	if varr < 0 {
		varr = 0
	}
	return mean, math.Sqrt(varr)
}

// Materialize copies timesteps [lo, hi) into a standalone dataset sharing
// the stream's graph: the offline-shaped artifact a retraining round feeds
// through core.Config.Provided. Fails if the range has been partly evicted
// or has not fully arrived (use WaitFor first).
func (s *Source) Materialize(lo, hi int) (*dataset.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("stream: materialize range [%d, %d)", lo, hi)
	}
	if lo < s.lo {
		return nil, fmt.Errorf("stream: timestep %d already evicted (window starts at %d)", lo, s.lo)
	}
	if hi > s.hi {
		return nil, fmt.Errorf("stream: timestep %d has not arrived (ingested through %d)", hi-1, s.hi)
	}
	meta := s.meta
	meta.Entries = hi - lo
	data := tensor.New(meta.Entries, meta.Nodes, meta.RawFeatures)
	d := data.Data()
	for t := lo; t < hi; t++ {
		copy(d[(t-lo)*s.rowLen:(t-lo+1)*s.rowLen], s.ring[(t%s.opts.Window)*s.rowLen:(t%s.opts.Window+1)*s.rowLen])
	}
	return &dataset.Dataset{Meta: meta, Data: data, Graph: s.gen.Graph}, nil
}

// Close stops the ingest goroutine and joins it. Safe to call at any time
// (including mid-retrain, with a consumer blocked in WaitFor) and more than
// once; blocked consumers wake with ok == false.
func (s *Source) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}
