package pgti

import (
	"io"

	"pgti/internal/atomicfile"
	"pgti/internal/core"
	"pgti/internal/trace"
)

// Tracing: the unified observability layer over training and serving.
//
//	rec := pgti.NewTraceRecorder()
//	exp, _ := pgti.NewExperiment("METR-LA",
//		pgti.WithStrategy(pgti.StrategyDistIndex),
//		pgti.WithWorkers(4),
//		pgti.WithTrace(rec))
//	report, _ := exp.Fit(ctx)
//	fmt.Println(report.Trace)            // aggregated span/counter summary
//	pgti.WriteTraceFile("run.trace.json", rec) // Chrome trace-event JSON (Perfetto)
//
// The recorder captures virtual-clock spans — per-step compute, batch
// assembly and prefetch occupancy, halo exchange launch-to-finish,
// per-bucket gradient sync with its fabric channel and wire bytes,
// staleness-queue apply lag, and serve admission/queue-wait/batch-forward —
// plus per-worker monotonic counters (raw vs compressed wire bytes, hidden
// vs exposed communication) and gauges (queue-depth high-water, memory
// high-water marks).
//
// Tracing is an observer, never a participant: a traced run is bitwise
// identical to an untraced one (same curves, same modeled clock), a nil
// recorder disables every probe at zero cost, and in modeled-compute runs
// the exported trace is byte-identical run-to-run. The span accounting
// reconciles exactly against the report: the exposed-communication span
// total equals CommTime + (HaloTime - HaloHiddenTime).

// TraceRecorder collects spans and counters for one run. Construct with
// NewTraceRecorder, pass to WithTrace (training) and/or WithServeTrace
// (serving) — use separate recorders when doing both, so worker IDs do not
// collide — then export with WriteJSON or aggregate with Summary.
type TraceRecorder = trace.Recorder

// TraceSummary is the aggregated per-kind span totals and final counter
// values of a recorded run (Report.Trace carries one when tracing was on).
type TraceSummary = trace.Summary

// NewTraceRecorder builds an empty recorder, ready to be passed to
// WithTrace or WithServeTrace.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// WithTrace records the run's virtual-clock spans and per-worker counters
// into rec during Fit. The traced run is bitwise identical to an untraced
// one; Report.Trace carries the aggregated summary and rec retains the full
// event stream for WriteJSON export.
func WithTrace(rec *TraceRecorder) Option {
	return func(c *core.Config) { c.Trace = rec }
}

// WithServeTrace records per-replica forward spans, per-request queue-wait
// spans, and serving counters into rec. Use a recorder separate from the
// training one so replica IDs do not collide with trainer worker IDs.
func WithServeTrace(rec *TraceRecorder) ServeOption {
	return func(c *serverSpec) { c.Trace = rec }
}

// WriteTrace exports rec as deterministic Chrome trace-event JSON — load it
// at ui.perfetto.dev or chrome://tracing. One process per worker, one
// thread per stream (step, compute, assembly, intra/inter comm, gradient
// engine, exposed tail, forward, queue).
func WriteTrace(w io.Writer, rec *TraceRecorder) error { return rec.WriteJSON(w) }

// WriteTraceFile exports rec to path as WriteTrace does, atomically: the file
// appears complete or not at all, and write, sync and close errors are
// returned.
func WriteTraceFile(path string, rec *TraceRecorder) error {
	return atomicfile.Write(path, rec.WriteJSON)
}
