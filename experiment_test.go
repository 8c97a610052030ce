package pgti

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/shard"
)

// tinyConfig is the engine configuration tinyOpts must build, written out as
// a literal.
func tinyConfig(strategy Strategy, workers int) core.Config {
	return core.Config{
		Config: shard.Config{
			Replicas:  workers,
			BatchSize: 4,
			Epochs:    2,
			Seed:      42,
		},
		Meta:     dataset.PeMSBay,
		Scale:    0.012,
		Strategy: strategy,
		Hidden:   8,
		K:        1,
	}
}

// tinyOpts returns fast options matching tinyConfig above.
func tinyOpts(strategy Strategy, workers int) []Option {
	return []Option{
		WithScale(0.012),
		WithStrategy(strategy),
		WithWorkers(workers),
		WithBatchSize(4),
		WithEpochs(2),
		WithHidden(8),
		WithDiffusionSteps(1),
		WithSeed(42),
	}
}

// TestCompatShimBitwiseIdentical: options build the same engine
// configuration a literal does, so NewExperiment(...).Fit and core.Run on
// the literal produce bitwise-identical training curves at W ∈ {1, 2, 4}.
func TestCompatShimBitwiseIdentical(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		literal := tinyConfig(StrategyDistIndex, workers)
		built := core.Config{Meta: dataset.PeMSBay}
		for _, opt := range tinyOpts(StrategyDistIndex, workers) {
			opt(&built)
		}
		if !reflect.DeepEqual(built, literal) {
			t.Fatalf("W=%d: options built %+v, literal is %+v", workers, built, literal)
		}
		legacy, err := core.Run(literal)
		if err != nil {
			t.Fatalf("W=%d literal: %v", workers, err)
		}
		exp, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyDistIndex, workers)...)
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		staged, err := exp.Fit(context.Background())
		if err != nil {
			t.Fatalf("W=%d staged: %v", workers, err)
		}
		if len(staged.Curve) != len(legacy.Curve) {
			t.Fatalf("W=%d: curve lengths %d vs %d", workers, len(staged.Curve), len(legacy.Curve))
		}
		for i := range staged.Curve {
			if staged.Curve[i] != legacy.Curve[i] {
				t.Fatalf("W=%d epoch %d: staged %+v != literal %+v",
					workers, i, staged.Curve[i], legacy.Curve[i])
			}
		}
		if staged.GradSyncBytes != legacy.GradSyncBytes || staged.Steps != legacy.Steps {
			t.Fatalf("W=%d: accounting differs: %d/%d bytes, %d/%d steps",
				workers, staged.GradSyncBytes, legacy.GradSyncBytes, staged.Steps, legacy.Steps)
		}
	}
}

// TestOptionValidationTable is the single source of illegal option rows. Each
// row goes through all three entrances to the trainer — NewExperiment, a
// per-round RoundOptions hook inside Stream.Retrain, and core.Run on the
// configuration the options build — and must be rejected by the one
// validation table with the same typed error every time.
func TestOptionValidationTable(t *testing.T) {
	const name = "Chickenpox-Hungary"
	distIndex := []Option{WithStrategy(StrategyDistIndex), WithWorkers(2)}
	with := func(base []Option, more ...Option) []Option {
		return append(append([]Option(nil), base...), more...)
	}
	hier2x2 := GradStack{Algo: GradAlgoHierarchical, Topology: Topology{Nodes: 2, GPUsPerNode: 2}}
	weightsWith := func(w float64) []float64 {
		ws := make([]float64, 20)
		for i := range ws {
			ws[i] = 1
		}
		ws[3] = w
		return ws
	}
	cases := []struct {
		name  string
		field string
		opts  []Option
	}{
		{"unknown strategy", "Strategy", []Option{WithStrategy(Strategy(99))}},
		{"spatial+non-dist-index", "Spatial", []Option{
			WithStrategy(StrategyGenDistIndex), WithWorkers(2), WithSpatial(2),
		}},
		{"spatial+st-llm", "Spatial", with(distIndex, WithSpatial(2), WithModel(ModelSTLLM))},
		{"spatial+gradstack-algo", "Spatial", with(distIndex, WithSpatial(2), WithGradStack(hier2x2))},
		{"autotune+flat", "GradStack", with(distIndex, WithGradStack(GradStack{Algo: GradAlgoFlat, AutoTune: true}))},
		// A negative cap used to run silently at the 256 KiB default.
		{"negative bucket bytes", "GradStack", with(distIndex, WithGradStack(GradStack{BucketBytes: -5}))},
		{"workers below topology grid", "Workers", with(distIndex, WithGradStack(hier2x2))},
		{"fp16 on single-GPU", "GradStack", []Option{
			WithStrategy(StrategyIndex), WithGradStack(GradStack{FP16: true}),
		}},
		{"workers without distribution", "Workers", []Option{
			WithStrategy(StrategyIndex), WithWorkers(4),
		}},
		{"scale out of range", "Scale", []Option{WithScale(1.5)}},
		{"missing fraction out of range", "MissingFrac", []Option{WithMissingData(1)}},
		// The grid trainer has no masked loss: it used to zero the readings
		// and train the plain MAE on them.
		{"missing data on a distributed strategy", "MissingFrac", with(distIndex, WithMissingData(0.1))},
		{"warm-start+resume", "Resume", []Option{
			WithWarmStart("a.pgtc"), WithResume("b.pgtc"),
		}},
		{"staleness without spatial", "Staleness", with(distIndex, WithStaleness(1))},
		{"negative staleness", "Staleness", with(distIndex, WithSpatial(2), WithStaleness(-1))},
		{"repartition without spatial", "Repartition", with(distIndex, WithRepartition(4, 2))},
		{"repartition threshold", "Repartition", with(distIndex, WithSpatial(2), WithRepartition(4, 0.5))},
		// NaN compares false with everything, so it used to slip past the
		// threshold rule and leave repartitioning silently off.
		{"repartition NaN threshold", "Repartition", with(distIndex, WithRepartition(4, math.NaN()))},
		{"repartition NaN threshold with spatial", "Repartition", with(distIndex, WithSpatial(2), WithRepartition(4, math.NaN()))},
		// A negative cap used to mean unlimited.
		{"negative memory caps", "SystemMemory", []Option{WithMemoryCaps(-1, -1)}},
		{"negative GPU memory cap", "GPUMemory", []Option{WithMemoryCaps(0, -1)}},
		{"node weights without spatial", "NodeWeights", with(distIndex, WithNodeWeights(make([]float64, 20)))},
		// NaN and +Inf slipped past the partitioner's w <= 0 guard and
		// skewed the modeled per-shard compute without an error.
		{"NaN node weight", "NodeWeights", with(distIndex, WithSpatial(2), WithNodeWeights(weightsWith(math.NaN())))},
		{"+Inf node weight", "NodeWeights", with(distIndex, WithSpatial(2), WithNodeWeights(weightsWith(math.Inf(1))))},
		// A NaN or +Inf rate used to train to a NaN curve and no error.
		{"NaN learning rate", "LR", []Option{WithLR(math.NaN())}},
		{"+Inf learning rate", "LR", []Option{WithLR(math.Inf(1))}},
		{"faults on single-GPU", "Faults", []Option{
			WithStrategy(StrategyIndex), WithFaultPlan(1, FaultCrash(0, time.Second)),
		}},
		{"fault rank outside the grid", "Faults", with(distIndex, WithFaultPlan(1, FaultCrash(5, time.Second)))},
	}
	st, err := NewStream(name, 1, StreamOptions{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range cases {
		_, errNew := NewExperiment(name, tc.opts...)
		// An empty base set is legal; the row arrives as round 0's options.
		_, errRound := st.Retrain(context.Background(), RetrainOptions{
			RoundOptions: func(int) []Option { return tc.opts },
		})
		cfg := core.Config{Meta: dataset.ChickenpoxHungary}
		for _, opt := range tc.opts {
			opt(&cfg)
		}
		_, errRun := core.Run(cfg)
		for door, err := range map[string]error{"NewExperiment": errNew, "RoundOptions": errRound, "core.Run": errRun} {
			var ice *InvalidConfigError
			if !errors.As(err, &ice) {
				t.Fatalf("%s via %s: want *InvalidConfigError, got %v", tc.name, door, err)
			}
			if ice.Field != tc.field || ice.Reason == "" {
				t.Fatalf("%s via %s: got %+v, want Field %q", tc.name, door, ice, tc.field)
			}
		}
	}
	// The legal variants of the near-miss combinations still construct.
	legal := [][]Option{
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2)},
		{WithStrategy(StrategyDistIndex), WithWorkers(4), WithGradStack(hier2x2)},
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithGradStack(GradStack{FP16: true})},
		// The hybrid grid's bucketed two-stage sync composes with the
		// collective stack's fp16/bucket-cap/autotune knobs.
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2),
			WithGradStack(GradStack{FP16: true, AutoTune: true, BucketBytes: 64 << 10})},
		// Staleness rides the hybrid grid's bucketed two-stage sync;
		// prefetch composes with any strategy.
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2), WithStaleness(2)},
		{WithStrategy(StrategyGenDistIndex), WithWorkers(2), WithPrefetch()},
		{WithStrategy(StrategyIndex), WithMissingData(0.1)},
		{WithWarmStart("a.pgtc")},
		{WithResume("b.pgtc")},
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2), WithRepartition(4, 2), WithNodeWeights(make([]float64, 20))},
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithFaultPlan(1, FaultCrash(1, time.Second))},
	}
	for i, opts := range legal {
		if _, err := NewExperiment(name, opts...); err != nil {
			t.Fatalf("legal combination %d rejected: %v", i, err)
		}
	}
}

func TestNewExperimentUnknownDataset(t *testing.T) {
	_, err := NewExperiment("nope")
	if !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("want ErrUnknownDataset, got %v", err)
	}
}

// TestWithShuffleExplicitGlobal: the options API distinguishes an explicit
// ShuffleGlobal from "unset" — on GenDistIndex the former forces global
// shuffling, while a configuration literal that merely holds the zero value
// (SamplerSet false) falls back to batch.
func TestWithShuffleExplicitGlobal(t *testing.T) {
	run := func(opts ...Option) *Report {
		t.Helper()
		exp, err := NewExperiment("PeMS-BAY", append(tinyOpts(StrategyGenDistIndex, 2), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exp.Fit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	unset := run()                              // strategy default: batch shuffling
	global := run(WithShuffle(ShuffleGlobal))   // explicit global wins
	explicitB := run(WithShuffle(ShuffleBatch)) // explicit batch == default

	sameCurve := func(a, b *Report) bool {
		if len(a.Curve) != len(b.Curve) {
			return false
		}
		for i := range a.Curve {
			if a.Curve[i] != b.Curve[i] {
				return false
			}
		}
		return true
	}
	if !sameCurve(unset, explicitB) {
		t.Fatal("explicit batch shuffle must match the GenDistIndex default")
	}
	if sameCurve(unset, global) {
		t.Fatal("explicit global shuffle must change the GenDistIndex schedule")
	}
	// And the literal's fallback: Sampler = ShuffleGlobal without
	// SamplerSet reads as unset, i.e. batch.
	cfg := tinyConfig(StrategyGenDistIndex, 2)
	cfg.Sampler = ShuffleGlobal
	literal, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCurve(literal, unset) {
		t.Fatal("ShuffleGlobal-without-SamplerSet-is-unset behavior changed")
	}
}

// TestExperimentPredictorServes exercises the public serving surface:
// warm handle, live windows, concurrent calls.
func TestExperimentPredictorServes(t *testing.T) {
	exp, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyIndex, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Predictor(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Predictor before Fit: %v", err)
	}
	if _, err := exp.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	pred, err := exp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	window := Window{Values: make([]float64, pred.Horizon()*pred.Nodes()*pred.Features())}
	for i := range window.Values {
		window.Values[i] = 60
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := pred.Predict(window)
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pred.PredictTest(1); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentEventsAndEval: the event stream and the staged Eval work
// through the public API.
func TestExperimentEventsAndEval(t *testing.T) {
	var epochs int
	exp, err := NewExperiment("PeMS-BAY",
		append(tinyOpts(StrategyIndex, 1),
			WithForecasts(1),
			WithEvents(func(ev Event) {
				if _, ok := ev.(EpochEvent); ok {
					epochs++
				}
			}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if epochs != 2 {
		t.Fatalf("epoch events %d, want 2", epochs)
	}
	rep, err := exp.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestMSE <= 0 || len(rep.Forecasts) != 1 {
		t.Fatalf("eval results missing: mse=%v forecasts=%d", rep.TestMSE, len(rep.Forecasts))
	}
}

// TestExperimentCancellation: the public Fit returns the partial report
// alongside the context error.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exp, err := NewExperiment("PeMS-BAY",
		append(tinyOpts(StrategyDistIndex, 2),
			WithEpochs(4),
			WithEvents(func(ev Event) {
				if e, ok := ev.(EpochEvent); ok && e.Epoch == 0 {
					cancel()
				}
			}))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Fit(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || len(rep.Curve) != 1 {
		t.Fatalf("partial report malformed: %+v", rep)
	}
}
