package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/memsim"
)

// TestStagedLifecycleMatchesRun drives Open/Build/Fit/Eval explicitly and
// pins the result to the one-shot Run — the two must be the same path.
func TestStagedLifecycleMatchesRun(t *testing.T) {
	for _, strategy := range []Strategy{Index, DistIndex} {
		cfg := tinyCfg(strategy)
		if strategy.IsDistributed() {
			cfg.Workers = 2
			cfg.BatchSize = 4
		}
		ref, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		e := NewEngine(cfg)
		if err := e.Open(); err != nil {
			t.Fatal(err)
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
		if err := e.Fit(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
		rep := e.Report()
		if len(rep.Curve) != len(ref.Curve) {
			t.Fatalf("%v: staged curve %d epochs, Run %d", strategy, len(rep.Curve), len(ref.Curve))
		}
		for i := range rep.Curve {
			if rep.Curve[i] != ref.Curve[i] {
				t.Fatalf("%v: epoch %d differs: %+v vs %+v", strategy, i, rep.Curve[i], ref.Curve[i])
			}
		}
		if rep.TestMSE != ref.TestMSE {
			t.Fatalf("%v: TestMSE %v vs %v", strategy, rep.TestMSE, ref.TestMSE)
		}
		if rep.PeakSystemBytes != ref.PeakSystemBytes {
			t.Fatalf("%v: peak %d vs %d", strategy, rep.PeakSystemBytes, ref.PeakSystemBytes)
		}
	}
}

func TestEngineStageMisuse(t *testing.T) {
	e := NewEngine(tinyCfg(Index))
	if _, err := e.Predictor(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Predictor before Fit: %v", err)
	}
	if err := e.Eval(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Eval before Fit: %v", err)
	}
	if err := e.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(context.Background()); !errors.Is(err, ErrFitted) {
		t.Fatalf("second Fit: %v", err)
	}
}

func TestEngineTypedValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		field  string
		mutate func(*Config)
	}{
		{"spatial+gen-dist-index", "Spatial", func(c *Config) {
			c.Strategy = GenDistIndex
			c.Spatial.Shards = 2
		}},
		{"spatial+st-llm", "Spatial", func(c *Config) {
			c.Model = ModelSTLLM
			c.Spatial.Shards = 2
		}},
		{"spatial+algo", "Spatial", func(c *Config) {
			c.Spatial.Shards = 2
			c.GradAlgo = ddp.GradAlgoHierarchical
			c.Topology = cluster.Topology{Nodes: 2, GPUsPerNode: 2}
		}},
		{"unknown strategy", "Strategy", func(c *Config) { c.Strategy = Strategy(99) }},
		{"warm start + resume", "Resume", func(c *Config) {
			c.LoadCheckpoint = "a.pgtc"
			c.ResumeCheckpoint = "b.pgtc"
		}},
		{"workers on a single GPU", "Workers", func(c *Config) { c.Strategy = Index }},
		{"missing data on the grid", "MissingFrac", func(c *Config) { c.MissingFrac = 0.1 }},
		{"staleness without shards", "Staleness", func(c *Config) { c.Staleness = 1 }},
	}
	for _, tc := range cases {
		cfg := tinyCfg(DistIndex)
		cfg.Workers = 2
		tc.mutate(&cfg)
		err := NewEngine(cfg).Open()
		var ice *InvalidConfigError
		if !errors.As(err, &ice) {
			t.Fatalf("%s: want *InvalidConfigError, got %v", tc.name, err)
		}
		if ice.Field != tc.field || ice.Reason == "" {
			t.Fatalf("%s: got %+v, want Field %q", tc.name, ice, tc.field)
		}
	}
}

// TestFitCancellationSingleGPU cancels from the first epoch-end event and
// checks the partial-curve contract: completed epochs retained, steps
// recorded, error wraps context.Canceled.
func TestFitCancellationSingleGPU(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckpt := filepath.Join(t.TempDir(), "interrupted.pgtc")
	cfg := tinyCfg(Index)
	cfg.Epochs = 4
	cfg.SaveCheckpoint = ckpt
	cfg.Events = func(ev Event) {
		if ep, ok := ev.(EpochEvent); ok && ep.Epoch == 0 {
			cancel()
		}
	}
	e := NewEngine(cfg)
	err := e.Fit(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	rep := e.Report()
	if len(rep.Curve) != 1 {
		t.Fatalf("partial curve has %d epochs, want 1", len(rep.Curve))
	}
	if rep.Steps == 0 {
		t.Fatal("cancelled run must report the steps it took")
	}
	if rep.Curve[0].ValMAE <= 0 || math.IsNaN(rep.Curve[0].ValMAE) {
		t.Fatalf("partial curve malformed: %+v", rep.Curve)
	}
	// A fitted-then-cancelled engine must not pretend to be fitted, and
	// must refuse a second Fit (the model state is already dirty).
	if _, err := e.Predictor(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Predictor after cancelled fit: %v", err)
	}
	if err := e.Fit(context.Background()); !errors.Is(err, ErrFitted) {
		t.Fatalf("refit after cancelled fit: %v", err)
	}
	// The interrupted state was checkpointed: a resume picks up at the
	// interrupted epoch and finishes the budget (warm continuation).
	resumed := tinyCfg(Index)
	resumed.Epochs = 4
	resumed.ResumeCheckpoint = ckpt
	repR, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(repR.Curve) != 3 || repR.Curve[0].Epoch != 1 {
		t.Fatalf("resumed-after-cancel curve malformed: %+v", repR.Curve)
	}
}

// TestFitCancellationDistributed checks the agreed per-step stop: every
// worker leaves the collective schedule at the same step, the run returns
// cleanly with the completed epochs.
func TestFitCancellationDistributed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tinyCfg(DistIndex)
	cfg.Workers = 2
	cfg.BatchSize = 4
	cfg.Epochs = 4
	cfg.Events = func(ev Event) {
		if ep, ok := ev.(EpochEvent); ok && ep.Epoch == 0 {
			cancel()
		}
	}
	e := NewEngine(cfg)
	err := e.Fit(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	rep := e.Report()
	if len(rep.Curve) != 1 {
		t.Fatalf("partial curve has %d epochs, want 1", len(rep.Curve))
	}
	if rep.Steps == 0 || rep.GradSyncBytes == 0 {
		t.Fatal("cancelled distributed run must report partial accounting")
	}
}

// TestEventStreamMatchesCurve asserts the epoch events replay the final
// curve exactly and that memory high-water events fire.
func TestEventStreamMatchesCurve(t *testing.T) {
	for _, strategy := range []Strategy{Index, DistIndex} {
		cfg := tinyCfg(strategy)
		if strategy.IsDistributed() {
			cfg.Workers = 2
			cfg.BatchSize = 4
		}
		var epochs []EpochEvent
		var mems []MemoryEvent
		cfg.Events = func(ev Event) {
			switch e := ev.(type) {
			case EpochEvent:
				epochs = append(epochs, e)
			case MemoryEvent:
				mems = append(mems, e)
			}
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(epochs) != len(rep.Curve) {
			t.Fatalf("%v: %d epoch events for %d curve rows", strategy, len(epochs), len(rep.Curve))
		}
		for i, ev := range epochs {
			r := rep.Curve[i]
			if ev.Epoch != r.Epoch || ev.TrainMAE != r.TrainMAE || ev.ValMAE != r.ValMAE {
				t.Fatalf("%v: event %d = %+v, curve row %+v", strategy, i, ev, r)
			}
		}
		if len(mems) == 0 {
			t.Fatalf("%v: no memory high-water events", strategy)
		}
		last := int64(0)
		for _, m := range mems {
			if m.PeakBytes <= last {
				t.Fatalf("%v: memory events must be strictly increasing: %+v", strategy, mems)
			}
			last = m.PeakBytes
		}
		if last != rep.PeakSystemBytes {
			t.Fatalf("%v: final memory event %d != peak %d", strategy, last, rep.PeakSystemBytes)
		}
	}
}

func TestAutotuneEventFires(t *testing.T) {
	cfg := tinyCfg(DistIndex)
	cfg.Workers = 2
	cfg.BatchSize = 4
	cfg.GradAutoTune = true
	var tuned []AutotuneEvent
	cfg.Events = func(ev Event) {
		if a, ok := ev.(AutotuneEvent); ok {
			tuned = append(tuned, a)
		}
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuned) != 1 || tuned[0].BucketBytes <= 0 {
		t.Fatalf("autotune events %+v", tuned)
	}
	if rep.GradBucketBytes != tuned[0].BucketBytes {
		t.Fatalf("event bucket %d != report %d", tuned[0].BucketBytes, rep.GradBucketBytes)
	}
}

// TestOOMEventAndTypedError: a capped run emits OOMEvent and the staged Fit
// surfaces the typed *OOMError while the report carries the legacy outcome.
func TestOOMEventAndTypedError(t *testing.T) {
	cfg := tinyCfg(Baseline)
	cfg.SystemMemory = cfg.Meta.Scaled(cfg.Scale).StandardBytes()
	var oomEvents int
	cfg.Events = func(ev Event) {
		if _, ok := ev.(OOMEvent); ok {
			oomEvents++
		}
	}
	e := NewEngine(cfg)
	err := e.Fit(context.Background())
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want *OOMError, got %v", err)
	}
	if oomEvents != 1 {
		t.Fatalf("oom events %d", oomEvents)
	}
	rep := e.Report()
	if !rep.OOM || rep.OOMError == "" {
		t.Fatalf("report not OOM-marked: %+v", rep)
	}
}

// TestPredictorRoundTrip: PredictTest must reproduce EmitForecasts exactly
// — the serving handle and the evaluation path cannot drift.
func TestPredictorRoundTrip(t *testing.T) {
	for _, strategy := range []Strategy{Index, DistIndex} {
		cfg := tinyCfg(strategy)
		cfg.Epochs = 2
		cfg.EmitForecasts = 2
		if strategy.IsDistributed() {
			cfg.Workers = 2
			cfg.BatchSize = 4
		}
		ref, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Forecasts) != 2 {
			t.Fatalf("%v: reference forecasts %d", strategy, len(ref.Forecasts))
		}

		e := NewEngine(cfg)
		if err := e.Fit(context.Background()); err != nil {
			t.Fatal(err)
		}
		pred, err := e.Predictor()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pred.PredictTest(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref.Forecasts) {
			t.Fatalf("%v: %d forecasts vs %d", strategy, len(got), len(ref.Forecasts))
		}
		for i := range got {
			if got[i].SnapshotIndex != ref.Forecasts[i].SnapshotIndex {
				t.Fatalf("%v: snapshot %d vs %d", strategy, got[i].SnapshotIndex, ref.Forecasts[i].SnapshotIndex)
			}
			for j := range got[i].Pred {
				if got[i].Pred[j] != ref.Forecasts[i].Pred[j] {
					t.Fatalf("%v: forecast %d value %d: %v vs %v", strategy, i, j, got[i].Pred[j], ref.Forecasts[i].Pred[j])
				}
				if got[i].Actual[j] != ref.Forecasts[i].Actual[j] {
					t.Fatalf("%v: actual %d value %d differs", strategy, i, j)
				}
			}
		}
	}
}

// TestPredictorWindow drives live inference through the raw-window path and
// sanity-checks shape, units, and input validation.
func TestPredictorWindow(t *testing.T) {
	cfg := tinyCfg(Index)
	cfg.Epochs = 2
	e := NewEngine(cfg)
	if err := e.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	p, err := e.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	if p.TestWindows() == 0 {
		t.Fatal("no test windows")
	}
	vals := make([]float64, p.Horizon()*p.Nodes()*p.Features())
	for i := range vals {
		vals[i] = 55 // plausible traffic speed
	}
	f, err := p.Predict(Window{Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Pred) != f.Horizon*p.Nodes() || len(f.Actual) != 0 {
		t.Fatalf("live forecast malformed: %d pred, %d actual", len(f.Pred), len(f.Actual))
	}
	for _, v := range f.Pred {
		if math.IsNaN(v) || v < -50 || v > 200 {
			t.Fatalf("implausible prediction %v", v)
		}
	}
	if _, err := p.Predict(Window{Values: vals[:3]}); err == nil {
		t.Fatal("short window must be rejected")
	}
}

// TestResumeEqualsStraightThrough: save at epoch 2, resume to epoch 4; the
// resumed curve must equal the straight-through run's tail bit for bit —
// parameters, Adam moments, and the sampler schedule all restore.
func TestResumeEqualsStraightThrough(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
		workers  int
	}{
		{"single-gpu", Index, 1},
		{"distributed-w2", DistIndex, 2},
	} {
		ckpt := filepath.Join(t.TempDir(), "state.pgtc")
		base := tinyCfg(tc.strategy)
		base.Workers = tc.workers
		if tc.strategy.IsDistributed() {
			base.BatchSize = 4
		}

		straight := base
		straight.Epochs = 4
		repS, err := Run(straight)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		first := base
		first.Epochs = 2
		first.SaveCheckpoint = ckpt
		repF, err := Run(first)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range repF.Curve {
			if repF.Curve[i] != repS.Curve[i] {
				t.Fatalf("%s: pre-save epoch %d differs", tc.name, i)
			}
		}

		second := base
		second.Epochs = 4
		second.ResumeCheckpoint = ckpt
		repR, err := Run(second)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(repR.Curve) != 2 {
			t.Fatalf("%s: resumed curve %d epochs, want 2", tc.name, len(repR.Curve))
		}
		for i, rec := range repR.Curve {
			if rec != repS.Curve[2+i] {
				t.Fatalf("%s: resumed epoch %d = %+v, straight-through %+v",
					tc.name, rec.Epoch, rec, repS.Curve[2+i])
			}
		}
	}
}

// TestDistributedCheckpointWarmStart: distributed runs now save rank-0's
// replica and warm-start every replica from it.
func TestDistributedCheckpointWarmStart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ddp.pgtc")
	pre := tinyCfg(DistIndex)
	pre.Workers = 2
	pre.BatchSize = 4
	pre.Epochs = 4
	pre.SaveCheckpoint = ckpt
	repPre, err := Run(pre)
	if err != nil {
		t.Fatal(err)
	}

	warm := tinyCfg(DistIndex)
	warm.Workers = 2
	warm.BatchSize = 4
	warm.Epochs = 1
	warm.LoadCheckpoint = ckpt
	repWarm, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	cold := tinyCfg(DistIndex)
	cold.Workers = 2
	cold.BatchSize = 4
	cold.Epochs = 1
	repCold, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	if repWarm.Curve[0].TrainMAE >= repCold.Curve[0].TrainMAE {
		t.Fatalf("warm start (%f) must begin below cold start (%f)",
			repWarm.Curve[0].TrainMAE, repCold.Curve[0].TrainMAE)
	}
	preFinal := repPre.Curve[len(repPre.Curve)-1].TrainMAE
	if repWarm.Curve[0].TrainMAE > preFinal*1.5 {
		t.Fatalf("warm start (%f) should continue from the pretrained level (%f)",
			repWarm.Curve[0].TrainMAE, preFinal)
	}
}

// TestDistributedEvalOptIn: TestMSE stays zero for distributed runs unless
// EvalTest or EmitForecasts asks for it — the legacy report contract.
func TestDistributedEvalOptIn(t *testing.T) {
	cfg := tinyCfg(DistIndex)
	cfg.Workers = 2
	cfg.BatchSize = 4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestMSE != 0 {
		t.Fatalf("distributed TestMSE must stay opt-in, got %v", rep.TestMSE)
	}
	cfg.EvalTest = true
	rep, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestMSE <= 0 {
		t.Fatalf("EvalTest must produce a test MSE, got %v", rep.TestMSE)
	}
	_ = memsim.FormatBytes(rep.PeakSystemBytes)
}
