package shard

import (
	"bytes"
	"testing"
	"time"

	"pgti/internal/ddp"
	"pgti/internal/trace"
)

// TestTraceObserverInvisibleHybrid is the tracing headline contract on the
// 2D (spatial x data) grid: a traced run is bitwise identical to an
// untraced one (curve and every modeled clock quantity), the export is
// byte-identical run-to-run, and worker 0's exposed-communication spans
// reconcile exactly with the Result: their sum equals CommTime + (HaloTime
// - HaloHiddenTime) — the gradient tail plus the halo tail the clock
// actually paid. Covered across the sync matrix: bucketed overlap,
// flattened collective, blocking halo, and the prefetch+staleness pipeline.
func TestTraceObserverInvisibleHybrid(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"overlap", func(*Config) {}},
		{"flatten", func(c *Config) { c.Algo = ddp.GradAlgoFlat }},
		{"blocking-halo", func(c *Config) { c.HaloSync = HaloSyncBlocking }},
		{"prefetch-stale2", func(c *Config) { c.Prefetch = true; c.Staleness = 2 }},
	}
	for _, v := range variants {
		cfg := Config{
			Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 2, LR: 0.02, Seed: 5,
			Net:         pipelineNet(),
			ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
		}
		v.mut(&cfg)
		plain, err := Train(data, split, g, supports, pipelineModel, cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", v.name, err)
		}

		rec := trace.New()
		cfg.Trace = rec
		traced, err := Train(data, split, g, supports, pipelineModel, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", v.name, err)
		}

		if len(traced.Curve) != len(plain.Curve) {
			t.Fatalf("%s: curve length %d vs %d", v.name, len(traced.Curve), len(plain.Curve))
		}
		for i := range plain.Curve {
			if traced.Curve[i] != plain.Curve[i] {
				t.Fatalf("%s epoch %d: tracing moved the curve: %+v vs %+v", v.name, i, traced.Curve[i], plain.Curve[i])
			}
		}
		if traced.VirtualTime != plain.VirtualTime || traced.CommTime != plain.CommTime ||
			traced.CommHiddenTime != plain.CommHiddenTime ||
			traced.HaloTime != plain.HaloTime || traced.HaloHiddenTime != plain.HaloHiddenTime ||
			traced.CommExposedIntra != plain.CommExposedIntra || traced.CommExposedInter != plain.CommExposedInter ||
			traced.Steps != plain.Steps {
			t.Fatalf("%s: tracing moved the clock:\n traced %+v\n  plain %+v", v.name, clockOf(traced), clockOf(plain))
		}

		// Exact reconciliation against worker 0 (the worker the Result
		// quotes): exposed spans == gradient tail + halo tail.
		var exposed0 time.Duration
		for _, sp := range rec.Snapshot().Spans {
			if sp.Worker == 0 && sp.Kind == trace.KindExposed {
				exposed0 += sp.Dur
			}
		}
		want := traced.CommTime + traced.HaloTime - traced.HaloHiddenTime
		if exposed0 != want {
			t.Fatalf("%s: worker 0 exposed spans total %v, want CommTime %v + (HaloTime %v - HaloHidden %v) = %v",
				v.name, exposed0, traced.CommTime, traced.HaloTime, traced.HaloHiddenTime, want)
		}

		// Byte-identical export run-to-run.
		rec2 := trace.New()
		cfg.Trace = rec2
		if _, err := Train(data, split, g, supports, pipelineModel, cfg); err != nil {
			t.Fatalf("%s rerun: %v", v.name, err)
		}
		var a, b bytes.Buffer
		if err := rec.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := rec2.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: trace export not byte-identical across runs (%d vs %d bytes)", v.name, a.Len(), b.Len())
		}
	}
}

// clockOf projects a Result onto its modeled-clock fields for failure
// messages.
func clockOf(r *Result) map[string]time.Duration {
	return map[string]time.Duration{
		"virtual":    r.VirtualTime,
		"comm":       r.CommTime,
		"commHidden": r.CommHiddenTime,
		"halo":       r.HaloTime,
		"haloHidden": r.HaloHiddenTime,
		"expIntra":   r.CommExposedIntra,
		"expInter":   r.CommExposedInter,
	}
}

// TestTracePerChannelExposure: on a topology with a real intra-node link
// the per-channel exposure split must cover both fabrics, agree between
// Result fields and counters, and each channel's tail must be bounded by
// the total communication ever exposed on it.
func TestTracePerChannelExposure(t *testing.T) {
	g, supports := testGraph(t, 24)
	data, split := testData(t, g.N)
	rec := trace.New()
	res, err := Train(data, split, g, supports, pipelineModel, Config{
		Shards: 2, Replicas: 2, BatchSize: 4, Epochs: 1, LR: 0.02, Seed: 5,
		Net:         pipelineNet(),
		ComputeCost: func(int) time.Duration { return time.Millisecond },
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]int64)
	for _, m := range rec.Summary().Counters {
		counters[m.Name] = m.Value
	}
	if _, ok := counters["comm.exposed.intra.ns"]; !ok {
		t.Fatal("missing comm.exposed.intra.ns counter")
	}
	if _, ok := counters["comm.exposed.inter.ns"]; !ok {
		t.Fatal("missing comm.exposed.inter.ns counter")
	}
	// Each channel drains concurrently with the other, so either tail can
	// be at most the full exposed time of the step sequence; the two
	// Result fields must be non-negative and at least one positive when
	// anything was exposed.
	if res.CommExposedIntra < 0 || res.CommExposedInter < 0 {
		t.Fatalf("negative channel exposure: intra %v inter %v", res.CommExposedIntra, res.CommExposedInter)
	}
	exposedTotal := res.CommTime + res.HaloTime - res.HaloHiddenTime
	if exposedTotal > 0 && res.CommExposedIntra == 0 && res.CommExposedInter == 0 {
		t.Fatalf("exposed %v but both channel tails are zero", exposedTotal)
	}
}
