// Package parallel is the process-wide compute runtime: a bounded worker
// pool with a grain-sized parallel-for primitive that the numeric kernels
// (tensor element-wise ops, MatMul/BMM, sparse SpMM, batch collation) fan
// out onto.
//
// Design constraints, in order:
//
//   - Bounded concurrency. The whole process never runs more than Workers()
//     compute goroutines at once, however deeply kernels nest. Helpers are
//     admitted by a token pool; when no token is free (e.g. a parallel
//     kernel calls another parallel kernel), the caller simply does the work
//     itself. Nested calls therefore degrade to serial instead of
//     oversubscribing or deadlocking.
//   - Caller runs. The goroutine invoking For always participates, so a
//     parallel region costs no handoff when the pool is busy and small
//     regions never pay goroutine startup.
//   - Deterministic layout. Chunk boundaries depend only on (n, grain) —
//     not on the pool width, scheduling, or which goroutine claims a chunk —
//     so a kernel that writes chunk-indexed results (or reduces per-chunk
//     partials in chunk order, see Sum) produces bit-identical results on
//     any machine at any Workers() setting.
//   - Panics propagate. A panic in any chunk aborts the remaining chunks
//     and re-panics the original value in the caller.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// maxChunks caps how many chunks one loop splits into. It is a constant —
// deliberately not derived from the pool width — so chunk boundaries (and
// therefore chunk-ordered floating-point reductions) are identical on every
// machine. It comfortably oversubscribes any realistic pool for load
// balancing through the work-stealing chunk counter.
const maxChunks = 64

// pool is an immutable snapshot of the runtime configuration. Swapping the
// whole pool atomically keeps For race-free against SetWorkers.
type pool struct {
	width  int
	tokens chan struct{} // width-1 admission tokens for helper goroutines
}

var current atomic.Pointer[pool]

func init() {
	n := runtime.GOMAXPROCS(0)
	if env := os.Getenv("PGTI_WORKERS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v >= 1 {
			n = v
		}
	}
	current.Store(newPool(n))
}

func newPool(width int) *pool {
	if width < 1 {
		width = 1
	}
	p := &pool{width: width, tokens: make(chan struct{}, width-1)}
	for i := 0; i < width-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Workers returns the pool width (the maximum compute parallelism).
func Workers() int { return current.Load().width }

// SetWorkers resizes the pool and returns the previous width. Width 1 makes
// every For serial — benchmarks use this to measure the serial baseline.
// In-flight For calls keep the pool they started with.
func SetWorkers(n int) int {
	prev := current.Swap(newPool(n))
	return prev.width
}

// GrainFor returns the chunk grain that makes one chunk cost at least
// targetWork units when each index costs perItem units. Kernels use it to
// express their grain in work units instead of raw indices.
func GrainFor(perItem, targetWork int) int {
	if perItem < 1 {
		perItem = 1
	}
	g := targetWork / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// chunking returns the chunk size and count for a loop of n indices with
// the given minimum grain. The result depends only on (n, grain).
func chunking(n, grain int) (chunk, chunks int) {
	if grain < 1 {
		grain = 1
	}
	chunk = grain
	if target := (n + maxChunks - 1) / maxChunks; target > chunk {
		chunk = target
	}
	chunks = (n + chunk - 1) / chunk
	return chunk, chunks
}

// NumChunks returns how many chunks For/ForIndexed split n indices into
// with the given grain (a pure function of n and grain).
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	_, chunks := chunking(n, grain)
	return chunks
}

// For executes fn over disjoint index ranges covering [0, n), each at least
// grain indices (except possibly the last). fn runs concurrently on up to
// Workers() goroutines including the caller; it must only write state that
// is disjoint per index. For returns when all chunks are done.
func For(n, grain int, fn func(lo, hi int)) {
	switch NumChunks(n, grain) {
	case 0:
	case 1:
		fn(0, n) // the common small region: no wrapper closure, no pool
	default:
		ForIndexed(n, grain, func(_, lo, hi int) { fn(lo, hi) })
	}
}

// ForIndexed is For with the chunk index (dense in [0, NumChunks(n, grain)))
// passed to fn, so reductions can write per-chunk partials at stable slots.
func ForIndexed(n, grain int, fn func(c, lo, hi int)) {
	forIndexed(current.Load(), n, grain, fn)
}

// forIndexed runs the loop on an explicit pool snapshot, so callers that
// size chunk-indexed state beforehand (Sum) see one consistent layout even
// if SetWorkers races with the call.
func forIndexed(p *pool, n, grain int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk, chunks := chunking(n, grain)
	if chunks == 1 {
		fn(0, 0, n)
		return
	}
	if p.width == 1 {
		// Serial, but through the identical chunk layout: results must not
		// depend on the pool width.
		for c := 0; c < chunks; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
		return
	}

	var (
		next     atomic.Int64
		abort    atomic.Bool
		panicMu  sync.Mutex
		panicVal any
		panicked bool
		wg       sync.WaitGroup
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked = true
					panicVal = r
				}
				panicMu.Unlock()
				abort.Store(true)
			}
		}()
		for !abort.Load() {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
	}

	// Admit helpers without blocking: tokens held by enclosing parallel
	// regions are simply unavailable, so nested calls shed to the caller.
	helpers := chunks - 1
	if helpers > p.width-1 {
		helpers = p.width - 1
	}
admit:
	for i := 0; i < helpers; i++ {
		select {
		case <-p.tokens:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { p.tokens <- struct{}{} }()
				work()
			}()
		default:
			break admit
		}
	}
	work()
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// Sum reduces fn over [0, n) in parallel: fn returns the partial sum of its
// range, and Sum adds the partials in chunk order. Because the chunk layout
// is width-independent, the result is bit-identical on any machine.
func Sum(n, grain int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	partials := make([]float64, NumChunks(n, grain))
	forIndexed(current.Load(), n, grain, func(c, lo, hi int) { partials[c] = fn(lo, hi) })
	var s float64
	for _, v := range partials {
		s += v
	}
	return s
}
