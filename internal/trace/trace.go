// Package trace is the repo's zero-cost-when-disabled observability layer:
// a span/counter recorder keyed to the virtual clock. Trainers and the
// serving tier record typed spans (compute, batch assembly, halo exchange
// launch→finish, per-bucket gradient sync with channel and wire bytes,
// staleness apply lag, serve queue-wait and batch forwards) plus monotonic
// counters and high-water gauges; the recorder renders them as a
// Perfetto-loadable Chrome trace-event JSON (one pid per worker, one tid per
// stream) and as a compact Summary on the run's Report.
//
// Recording never touches virtual clocks or collectives, so a traced run is
// bitwise identical to an untraced one; on fully-modeled timelines
// (structural compute costs) the emitted trace bytes are identical
// run-to-run. Every recording entry point is nil-safe — a nil *Recorder or
// *Worker makes every call a no-op — so disabled runs pay only a nil check.
//
// Concurrency contract: Recorder.Worker is safe to call from any goroutine,
// but each returned *Worker shard must be used by one goroutine at a time
// (trainer workers own their shard; the serve tier records under its own
// mutex). Snapshot/Summary/WriteJSON read every shard and must only run
// after the recorded work has quiesced.
package trace

import (
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies a span for summaries and the exporter's category field.
type Kind uint8

// The span vocabulary of the training and serving hot paths.
const (
	// KindStep is one optimizer step's full charge on the virtual clock.
	KindStep Kind = iota
	// KindCompute is the step's modeled (or measured) compute span.
	KindCompute
	// KindAssemble is host-side batch collation (serial exposure or
	// prefetch occupancy).
	KindAssemble
	// KindFetch is a remote data fetch or host-to-device transfer.
	KindFetch
	// KindHalo is one halo-exchange launch→finish window.
	KindHalo
	// KindGrad is one gradient bucket's collective launch→finish window.
	KindGrad
	// KindStaleApply is the bounded-staleness apply lag: the span between a
	// queued gradient's collective finish and its deferred application.
	KindStaleApply
	// KindExposed is communication the clock actually paid: the step tail
	// past compute, staleness stalls, and inline (blocking/eval) exchanges.
	KindExposed
	// KindQueue is a serve request's admission→dispatch wait (async span).
	KindQueue
	// KindForward is one coalesced serve batch forward on a replica.
	KindForward
	// KindRepartition is one elastic chunk repartition: the modeled window
	// during which a chunk's feature rows migrate between shards and the
	// halo-exchange plans rebuild.
	KindRepartition
	// KindFault is the detection window of one scheduled worker crash: from
	// the first step boundary past the crash time through the agreed loss,
	// spanning the modeled detection timeout.
	KindFault
	// KindRecovery is the modeled recovery window after a detected worker
	// loss: grid re-plan plus parameter/feature re-fill, ending where the
	// survivor grid resumes training.
	KindRecovery

	numKinds
)

// String implements fmt.Stringer; the exporter uses it as the event
// category.
func (k Kind) String() string {
	switch k {
	case KindStep:
		return "step"
	case KindCompute:
		return "compute"
	case KindAssemble:
		return "assemble"
	case KindFetch:
		return "fetch"
	case KindHalo:
		return "halo"
	case KindGrad:
		return "grad"
	case KindStaleApply:
		return "stale-apply"
	case KindExposed:
		return "exposed"
	case KindQueue:
		return "queue"
	case KindForward:
		return "forward"
	case KindRepartition:
		return "repartition"
	case KindFault:
		return "fault"
	case KindRecovery:
		return "recovery"
	default:
		return "unknown"
	}
}

// Streams are the per-worker export lanes (Chrome tids). Keeping comm
// channels on distinct lanes makes the two-channel overlap visible: an
// intra-node halo burst rides StreamCommIntra while an inter-node gradient
// bucket occupies StreamCommInter of the same worker.
const (
	StreamStep = iota
	StreamCompute
	StreamAssembly
	StreamCommIntra
	StreamCommInter
	StreamGradEngine
	StreamExposed
	StreamForward
	StreamQueue

	numStreams
)

// StreamName returns the exporter's thread name for a stream.
func StreamName(stream int) string {
	switch stream {
	case StreamStep:
		return "step"
	case StreamCompute:
		return "compute"
	case StreamAssembly:
		return "assembly"
	case StreamCommIntra:
		return "comm/intra"
	case StreamCommInter:
		return "comm/inter"
	case StreamGradEngine:
		return "grad-engine"
	case StreamExposed:
		return "exposed"
	case StreamForward:
		return "forward"
	case StreamQueue:
		return "queue"
	default:
		return "stream"
	}
}

// Span is one recorded interval on a worker's virtual timeline. Seq is the
// worker-local record order; (Start, Worker, Seq) is the deterministic sort
// key the exporter relies on. Async spans may overlap on their stream (serve
// queue waits do) and export as paired begin/end events instead of a
// complete event.
type Span struct {
	Worker int
	Seq    int
	Kind   Kind
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Stream int
	Bytes  int64
	Async  bool
}

// Metric is one named counter or gauge value.
type Metric struct {
	Name  string
	Value int64
}

// Worker is one rank's unlocked recording shard. All methods are nil-safe
// no-ops, so call sites guard hot work with a plain nil check.
type Worker struct {
	id       int
	seq      int
	base     time.Duration
	spans    []Span
	counters map[string]int64
	gauges   map[string]int64
}

// Span records one completed interval. Negative durations are clamped to
// zero (a span cannot un-happen; clamping keeps exporter invariants simple).
func (w *Worker) Span(kind Kind, name string, stream int, start, dur time.Duration, bytes int64) {
	if w == nil {
		return
	}
	w.record(kind, name, stream, start, dur, bytes, false)
}

// AsyncSpan records an interval that may overlap siblings on its stream
// (exported as a begin/end pair rather than a complete event).
func (w *Worker) AsyncSpan(kind Kind, name string, stream int, start, dur time.Duration, bytes int64) {
	if w == nil {
		return
	}
	w.record(kind, name, stream, start, dur, bytes, true)
}

func (w *Worker) record(kind Kind, name string, stream int, start, dur time.Duration, bytes int64, async bool) {
	if dur < 0 {
		dur = 0
	}
	w.spans = append(w.spans, Span{
		Worker: w.id, Seq: w.seq, Kind: kind, Name: name,
		Start: w.base + start, Dur: dur, Stream: stream, Bytes: bytes, Async: async,
	})
	w.seq++
}

// Add bumps a monotonic counter on this shard (summed across workers in the
// snapshot).
func (w *Worker) Add(name string, v int64) {
	if w == nil {
		return
	}
	if w.counters == nil {
		w.counters = make(map[string]int64)
	}
	w.counters[name] += v
}

// Recorder is one run's trace sink: per-worker shards plus run-level
// metrics. The zero of its pointer type (nil) is the disabled recorder.
type Recorder struct {
	mu       sync.Mutex
	base     time.Duration
	workers  map[int]*Worker
	names    map[int]string
	counters map[string]int64
	gauges   map[string]int64
}

// New returns an empty enabled recorder.
func New() *Recorder {
	return &Recorder{
		workers:  make(map[int]*Worker),
		names:    make(map[int]string),
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
	}
}

// Worker returns (creating on first use) the shard for one worker id. Safe
// for concurrent callers; nil-safe (a nil recorder yields a nil shard, whose
// methods are all no-ops).
func (r *Recorder) Worker(id int) *Worker {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[id]
	if w == nil {
		w = &Worker{id: id, base: r.base}
		r.workers[id] = w
	}
	return w
}

// Rebase sets the clock origin added to every subsequently recorded span
// start, on existing shards and shards created later. The engine uses it to
// stitch a recovery attempt's locally-zeroed virtual clocks onto the run's
// absolute timeline, so spans from successive attempts never interleave.
// Call only between attempts (same quiescence contract as Snapshot).
func (r *Recorder) Rebase(origin time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.base = origin
	for _, w := range r.workers {
		w.base = origin
	}
}

// NameWorker sets the exporter's process name for a worker id (default
// "worker <id>").
func (r *Recorder) NameWorker(id int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.names[id] = name
	r.mu.Unlock()
}

// Add bumps a run-level monotonic counter (engine-side call sites that are
// not a worker, e.g. memsim watermarks).
func (r *Recorder) Add(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// Gauge raises a run-level high-water gauge.
func (r *Recorder) Gauge(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if v > r.gauges[name] {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// Trace is a deterministic point-in-time snapshot: spans sorted by (Start,
// Worker, Seq), metrics sorted by name (counters summed, gauges maxed across
// shards and the run level).
type Trace struct {
	Spans    []Span
	Counters []Metric
	Gauges   []Metric
	// WorkerNames lists (id, name) pairs sorted by id for every worker that
	// recorded anything or was explicitly named.
	WorkerNames []WorkerName
}

// WorkerName labels one exporter process.
type WorkerName struct {
	ID   int
	Name string
}

// Snapshot merges every shard into a deterministic Trace. Call only after
// the recorded work has quiesced (shards are unlocked by design).
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return &Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{}
	counters := make(map[string]int64, len(r.counters))
	gauges := make(map[string]int64, len(r.gauges))
	for k, v := range r.counters {
		counters[k] += v
	}
	for k, v := range r.gauges {
		if v > gauges[k] {
			gauges[k] = v
		}
	}
	ids := make([]int, 0, len(r.workers))
	for id := range r.workers {
		ids = append(ids, id)
	}
	for id := range r.names {
		if _, ok := r.workers[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		name := r.names[id]
		t.WorkerNames = append(t.WorkerNames, WorkerName{ID: id, Name: name})
		w := r.workers[id]
		if w == nil {
			continue
		}
		t.Spans = append(t.Spans, w.spans...)
		for k, v := range w.counters {
			counters[k] += v
		}
		for k, v := range w.gauges {
			if v > gauges[k] {
				gauges[k] = v
			}
		}
	}
	sort.SliceStable(t.Spans, func(i, j int) bool {
		a, b := t.Spans[i], t.Spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Seq < b.Seq
	})
	t.Counters = sortMetrics(counters)
	t.Gauges = sortMetrics(gauges)
	return t
}

func sortMetrics(m map[string]int64) []Metric {
	out := make([]Metric, 0, len(m))
	for k, v := range m {
		out = append(out, Metric{Name: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// KindTotal aggregates one span kind in a Summary.
type KindTotal struct {
	Kind  string
	Count int
	Total time.Duration
}

// Summary is the compact roll-up a Report carries: per-kind span totals plus
// the merged counters and gauges.
type Summary struct {
	Spans    int
	Workers  int
	Kinds    []KindTotal
	Counters []Metric
	Gauges   []Metric
}

// Summary rolls the snapshot up. A nil recorder yields nil (reports omit the
// field when tracing is off).
func (r *Recorder) Summary() *Summary {
	if r == nil {
		return nil
	}
	t := r.Snapshot()
	var counts [numKinds]int
	var totals [numKinds]time.Duration
	for _, sp := range t.Spans {
		if sp.Kind < numKinds {
			counts[sp.Kind]++
			totals[sp.Kind] += sp.Dur
		}
	}
	s := &Summary{Spans: len(t.Spans), Workers: len(t.WorkerNames), Counters: t.Counters, Gauges: t.Gauges}
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] > 0 {
			s.Kinds = append(s.Kinds, KindTotal{Kind: k.String(), Count: counts[k], Total: totals[k]})
		}
	}
	return s
}

// SpanTotal returns the summed duration of one kind's spans in the summary
// (zero when absent) — the reconciliation hook the determinism tests use.
func (s *Summary) SpanTotal(kind Kind) time.Duration {
	if s == nil {
		return 0
	}
	name := kind.String()
	for _, kt := range s.Kinds {
		if kt.Kind == name {
			return kt.Total
		}
	}
	return 0
}

// WriteJSON renders the recorder's snapshot as Chrome trace-event JSON (see
// export.go). Nil recorders write an empty, still-loadable trace.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}
