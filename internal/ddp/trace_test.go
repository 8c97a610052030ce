package ddp_test

import (
	"bytes"
	"testing"
	"time"

	"pgti/internal/ddp"
	"pgti/internal/shard"
	"pgti/internal/trace"
)

// TestTraceObserverInvisible is the tracing layer's headline contract on
// the flat DDP path: attaching a recorder must not move a single bit —
// curves, step count, and every modeled clock quantity identical to the
// untraced run — while the recorded spans reconcile exactly against the
// trainer's own communication accounting, and two traced runs export
// byte-identical JSON. Modeled compute pins the clock so the assertions are
// exact, across world sizes and both sync modes.
func TestTraceObserverInvisible(t *testing.T) {
	fw := testSetup(t, 40, 12, 3)
	for _, workers := range []int{1, 2, 4} {
		for _, sync := range []ddp.GradAlgo{ddp.GradAlgoRing, ddp.GradAlgoFlat} {
			cfg := shard.Config{
				Replicas: workers, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 7,
				Algo:        sync,
				ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
			}
			plain, err := fw.train(cfg)
			if err != nil {
				t.Fatalf("W=%d sync=%d untraced: %v", workers, sync, err)
			}

			rec := trace.New()
			cfg.Trace = rec
			traced, err := fw.train(cfg)
			if err != nil {
				t.Fatalf("W=%d sync=%d traced: %v", workers, sync, err)
			}

			if len(traced.Curve) != len(plain.Curve) {
				t.Fatalf("W=%d sync=%d: curve length %d vs %d", workers, sync, len(traced.Curve), len(plain.Curve))
			}
			for i := range plain.Curve {
				if traced.Curve[i] != plain.Curve[i] {
					t.Fatalf("W=%d sync=%d epoch %d: tracing moved the curve: %+v vs %+v",
						workers, sync, i, traced.Curve[i], plain.Curve[i])
				}
			}
			if traced.VirtualTime != plain.VirtualTime || traced.CommTime != plain.CommTime ||
				traced.CommHiddenTime != plain.CommHiddenTime || traced.Steps != plain.Steps {
				t.Fatalf("W=%d sync=%d: tracing moved the clock: virtual %v/%v comm %v/%v hidden %v/%v steps %d/%d",
					workers, sync, traced.VirtualTime, plain.VirtualTime, traced.CommTime, plain.CommTime,
					traced.CommHiddenTime, plain.CommHiddenTime, traced.Steps, plain.Steps)
			}

			// Exact reconciliation: rank 0's exposed-communication spans sum
			// to the trainer's reported exposed comm (the Result quotes rank
			// 0, so the span filter does too).
			var exposed0 time.Duration
			for _, sp := range rec.Snapshot().Spans {
				if sp.Worker == 0 && sp.Kind == trace.KindExposed {
					exposed0 += sp.Dur
				}
			}
			if exposed0 != traced.CommTime {
				t.Fatalf("W=%d sync=%d: rank 0 exposed spans total %v, trainer reports %v", workers, sync, exposed0, traced.CommTime)
			}
			if sum := rec.Summary(); sum.Spans == 0 || sum.Workers != workers {
				t.Fatalf("W=%d sync=%d: summary %d spans across %d workers", workers, sync, sum.Spans, sum.Workers)
			}

			// Byte-identical export run-to-run under the modeled clock.
			rec2 := trace.New()
			cfg.Trace = rec2
			if _, err := fw.train(cfg); err != nil {
				t.Fatalf("W=%d sync=%d rerun: %v", workers, sync, err)
			}
			var a, b bytes.Buffer
			if err := rec.WriteJSON(&a); err != nil {
				t.Fatal(err)
			}
			if err := rec2.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("W=%d sync=%d: trace export not byte-identical across runs (%d vs %d bytes)",
					workers, sync, a.Len(), b.Len())
			}
		}
	}
}

// TestTraceCountersMatchResult: the wire counters must agree with the
// Result's own byte accounting — same source of truth, two views. Counters
// sum across workers while the Result quotes rank 0, and gradient wire
// traffic is symmetric (same parameter vector, same steps), so the summed
// counter is exactly workers x GradSyncBytes. The summed exposed-comm
// counter must likewise equal the all-worker exposed span total.
func TestTraceCountersMatchResult(t *testing.T) {
	fw := testSetup(t, 40, 12, 3)
	const workers = 2
	rec := trace.New()
	res, err := fw.train(shard.Config{
		Replicas: workers, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 7,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := rec.Summary()
	counters := make(map[string]int64)
	for _, m := range sum.Counters {
		counters[m.Name] = m.Value
	}
	if got := counters["grad.wire.bytes"]; got != int64(workers)*res.GradSyncBytes {
		t.Fatalf("grad.wire.bytes %d, want %d x Result.GradSyncBytes %d", got, workers, res.GradSyncBytes)
	}
	if got := counters["comm.exposed.ns"]; got != int64(sum.SpanTotal(trace.KindExposed)) {
		t.Fatalf("comm.exposed.ns %d disagrees with exposed span total %v", got, sum.SpanTotal(trace.KindExposed))
	}
	if counters["comm.exposed.inter.ns"] != counters["comm.exposed.ns"] {
		t.Fatalf("flat world split intra/inter: inter %d vs total %d",
			counters["comm.exposed.inter.ns"], counters["comm.exposed.ns"])
	}
}
