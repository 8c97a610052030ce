package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pgti/internal/batching"
	"pgti/internal/ddp"
	"pgti/internal/device"
	"pgti/internal/trace"
)

// modeledCfg is goldenMeta with compute and collation pinned, so the clock is
// a pure function of the configuration.
func modeledCfg(strategy Strategy) Config {
	return Config{
		Meta: goldenMeta, Model: ModelPGTDCRNN, Strategy: strategy,
		BatchSize: 8, Epochs: 2, Hidden: 8, K: 1, Seed: 42,
		ComputeCost:  func(int) time.Duration { return 2 * time.Millisecond },
		AssembleCost: func(items int) time.Duration { return time.Duration(items) * 25 * time.Microsecond },
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOptionsMeanTheSameOnSingleGPU: the trainer options the retired
// single-GPU loop silently ignored (Prefetch, Trace, ComputeCost,
// AssembleCost, Sampler) now act on Baseline, Index and GPUIndex exactly as
// they do on the distributed strategies.
func TestOptionsMeanTheSameOnSingleGPU(t *testing.T) {
	pcie := device.NewGPU("pcie", 0)
	clocks := map[Strategy]time.Duration{}
	var h2dTotal, staging time.Duration
	for _, strategy := range []Strategy{Baseline, Index, GPUIndex} {
		ref := mustRun(t, modeledCfg(strategy))

		// (a) Prefetch moves timing, never bits.
		cfg := modeledCfg(strategy)
		cfg.Prefetch = true
		if pre := mustRun(t, cfg); !reflect.DeepEqual(pre.Curve, ref.Curve) {
			t.Errorf("%v: prefetch moved the curve:\n%+v\n%+v", strategy, pre.Curve, ref.Curve)
		} else if pre.VirtualTime >= ref.VirtualTime {
			t.Errorf("%v: prefetch hid no assembly: %v vs serial %v", strategy, pre.VirtualTime, ref.VirtualTime)
		}

		// (b) Tracing observes, never participates — and now sees the run.
		cfg = modeledCfg(strategy)
		cfg.Trace = trace.New()
		traced := mustRun(t, cfg)
		if !reflect.DeepEqual(traced.Curve, ref.Curve) || traced.VirtualTime != ref.VirtualTime {
			t.Errorf("%v: tracing moved the run: clock %v vs %v", strategy, traced.VirtualTime, ref.VirtualTime)
		}
		if traced.Trace == nil {
			t.Fatalf("%v: traced run carries no summary", strategy)
		}
		var computeSpans, h2dSpans int
		var stepTotal, partsTotal, exposed time.Duration
		for _, sp := range cfg.Trace.Snapshot().Spans {
			switch sp.Kind {
			case trace.KindStep:
				stepTotal += sp.Dur
			case trace.KindCompute:
				computeSpans++
				partsTotal += sp.Dur
			case trace.KindAssemble:
				partsTotal += sp.Dur
			case trace.KindFetch:
				h2dSpans++
			case trace.KindExposed:
				exposed += sp.Dur
			}
		}
		wantH2D := traced.Steps
		if strategy == GPUIndex {
			wantH2D = 0
		}
		if computeSpans != traced.Steps || h2dSpans != wantH2D {
			t.Errorf("%v: %d compute and %d H2D spans over %d steps, want %d and %d",
				strategy, computeSpans, h2dSpans, traced.Steps, traced.Steps, wantH2D)
		}
		if exposed != traced.CommTime {
			t.Errorf("%v: exposed spans total %v, report says %v", strategy, exposed, traced.CommTime)
		}

		// (c) With compute and collation pinned the clock is closed-form:
		// every step pays compute + assembly, the host-resident strategies
		// pay each batch's pageable copy, GPU-index its one staging copy.
		e := NewEngine(modeledCfg(strategy))
		if err := e.Open(); err != nil {
			t.Fatal(err)
		}
		entries, horizon, nodes, features := e.data.Dims()
		var steps, h2d time.Duration
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for _, b := range batching.Batches(e.split.Train, cfg.BatchSize) {
				steps += cfg.ComputeCost(len(b)) + cfg.AssembleCost(len(b))
				h2d += pcie.TransferTime(int64(len(b)) * int64(2*horizon*nodes*features) * 8)
			}
		}
		var staged time.Duration
		if strategy == GPUIndex {
			h2d = 0
			staged = pcie.TransferTime(int64(entries*nodes*features) * 8)
			staging = staged
		} else {
			h2dTotal = h2d
		}
		if ref.CommTime != h2d {
			t.Errorf("%v: exposed transfers %v, want the H2D total %v", strategy, ref.CommTime, h2d)
		}
		if want := steps + h2d + staged; ref.VirtualTime != want {
			t.Errorf("%v: clock %v, want %v", strategy, ref.VirtualTime, want)
		}
		// Step spans cover compute + assembly; the transfers are charged
		// ahead of them as exposed communication.
		if stepTotal != steps || partsTotal != steps || exposed != h2d {
			t.Errorf("%v: step spans %v, compute+assemble spans %v, exposed %v do not reconcile with %v of steps and %v of transfers",
				strategy, stepTotal, partsTotal, exposed, steps, h2d)
		}
		clocks[strategy] = ref.VirtualTime
	}
	// §4.1 on the clock: GPU-index-batching trades every per-batch transfer
	// for one consolidated staging copy.
	if got := clocks[Index] - clocks[GPUIndex]; got != h2dTotal-staging || got <= 0 {
		t.Errorf("Index - GPUIndex = %v, want per-batch H2D %v - staging %v", got, h2dTotal, staging)
	}

	// (d) The sampler is honored: batch-level shuffling reorders the batches.
	cfg := modeledCfg(Index)
	cfg.Sampler, cfg.SamplerSet = ddp.BatchShuffle, true
	if got, ref := mustRun(t, cfg), mustRun(t, modeledCfg(Index)); reflect.DeepEqual(got.Curve, ref.Curve) {
		t.Errorf("batch-level shuffling left the Index curve untouched: %+v", got.Curve)
	}
}

// TestIndexEqualsDistIndexAtOneWorker: index-batching and
// distributed-index-batching are one technique at two world sizes. At
// Workers=1 they take the same steps to the same parameters on every model;
// only the memory accounting and the H2D charge tell them apart.
func TestIndexEqualsDistIndexAtOneWorker(t *testing.T) {
	for _, model := range []ModelKind{ModelPGTDCRNN, ModelDCRNN, ModelA3TGCN, ModelSTLLM} {
		fit := func(strategy Strategy) (*Report, [][]float64) {
			cfg := modeledCfg(strategy)
			cfg.Model = model
			e := NewEngine(cfg)
			if err := e.Fit(context.Background()); err != nil {
				t.Fatalf("%v/%v: %v", strategy, model, err)
			}
			params, err := e.ParamSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			return e.Report(), params
		}
		single, singleParams := fit(Index)
		dist, distParams := fit(DistIndex)
		if !reflect.DeepEqual(single.Curve, dist.Curve) || single.Steps != dist.Steps {
			t.Errorf("%v: curves differ:\n index      %+v\n dist-index %+v", model, single.Curve, dist.Curve)
		}
		if !reflect.DeepEqual(singleParams, distParams) {
			t.Errorf("%v: trained parameters differ", model)
		}
		if got := single.VirtualTime - dist.VirtualTime; got != single.CommTime || got <= 0 {
			t.Errorf("%v: clocks differ by %v, want the H2D total %v", model, got, single.CommTime)
		}
		if single.PeakSystemBytes == dist.PeakSystemBytes {
			t.Errorf("%v: memory accounting was unified (%d B both)", model, single.PeakSystemBytes)
		}
	}
}
