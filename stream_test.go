package pgti

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// streamFitOpts is the shared option set of the public streaming tests:
// modeled compute and collation costs pin the virtual clock, so replay
// comparisons are exact rather than merely curve-wise.
func streamFitOpts(epochs int) []Option {
	return []Option{
		WithStrategy(StrategyDistIndex), WithWorkers(2),
		WithBatchSize(8), WithEpochs(epochs), WithLR(0.01),
		WithHidden(8), WithDiffusionSteps(1), WithSeed(42),
		WithPrefetch(),
		WithComputeCost(func(int) time.Duration { return 2 * time.Millisecond }),
		WithAssembleCost(func(items int) time.Duration { return time.Duration(items) * 25 * time.Microsecond }),
	}
}

// TestStreamReplayMatchesExperimentBitwise: the public streaming contract —
// replaying the whole stream in one window reproduces the offline
// experiment's curve and modeled clock bitwise.
func TestStreamReplayMatchesExperimentBitwise(t *testing.T) {
	exp, err := NewExperiment("Chickenpox-Hungary", streamFitOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := exp.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStream("Chickenpox-Hungary", 42, StreamOptions{Window: 522})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rounds, err := st.Retrain(context.Background(), RetrainOptions{}, streamFitOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 || rounds[0].Lo != 0 || rounds[0].Hi != 522 {
		t.Fatalf("rounds %+v, want one round over [0, 522)", rounds)
	}
	replay := rounds[0].Report
	if len(replay.Curve) != len(offline.Curve) {
		t.Fatalf("curve lengths %d vs %d", len(replay.Curve), len(offline.Curve))
	}
	for i := range offline.Curve {
		if replay.Curve[i] != offline.Curve[i] {
			t.Fatalf("epoch %d: stream replay %+v != offline %+v", i, replay.Curve[i], offline.Curve[i])
		}
	}
	if replay.VirtualTime != offline.VirtualTime {
		t.Fatalf("modeled clock %v != offline %v", replay.VirtualTime, offline.VirtualTime)
	}
}

// TestStreamRetrainSwapsIntoServer: rolling rounds warm-start and publish
// weights into a live server; predictions after the swap come from the
// freshly retrained parameters.
func TestStreamRetrainSwapsIntoServer(t *testing.T) {
	// A server seeded from a separately fitted experiment.
	exp, err := NewExperiment("Chickenpox-Hungary", streamFitOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(exp, WithReplicas(2),
		WithCostModel(func(int) time.Duration { return time.Millisecond }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st, err := NewStream("Chickenpox-Hungary", 42, StreamOptions{Window: 200, Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var seen []StreamRound
	rounds, err := st.Retrain(context.Background(), RetrainOptions{
		Window: 200, Advance: 100, Rounds: 3, Server: srv,
		OnRound: func(r StreamRound) { seen = append(seen, r) },
	}, streamFitOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || len(seen) != 3 {
		t.Fatalf("%d rounds (%d observed), want 3", len(rounds), len(seen))
	}
	for k, r := range rounds {
		if !r.Swapped {
			t.Fatalf("round %d weights were not published", k)
		}
		if r.Lo != k*100 || r.Hi != k*100+200 {
			t.Fatalf("round %d window [%d, %d), want [%d, %d)", k, r.Lo, r.Hi, k*100, k*100+200)
		}
		if r.Report == nil || len(r.Report.Curve) == 0 {
			t.Fatalf("round %d has no training report", k)
		}
	}
	// The stream ingested at least the trained prefix on the modeled
	// arrival clock.
	if clock := st.IngestClock(); clock < 400*time.Minute {
		t.Fatalf("ingest clock %v, want >= 400 minutes (400 timesteps)", clock)
	}
	// The served model still answers after the swaps.
	h, n, f := srv.Horizon(), srv.Nodes(), srv.Features()
	w := Window{Values: make([]float64, h*n*f)}
	if _, err := srv.Predict(context.Background(), w); err != nil {
		t.Fatalf("predict after swap: %v", err)
	}
}

// TestStreamOptionValidation: illegal streaming configurations fail fast
// with typed errors.
func TestStreamOptionValidation(t *testing.T) {
	if _, err := NewStream("no-such-dataset", 1, StreamOptions{Window: 64}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if _, err := NewStream("Chickenpox-Hungary", 1, StreamOptions{Window: 4}); err == nil {
		t.Fatal("window below one snapshot accepted")
	}
	st, err := NewStream("Chickenpox-Hungary", 1, StreamOptions{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Checkpointing does not compose with rolling retraining.
	if _, err := st.Retrain(context.Background(), RetrainOptions{},
		append(streamFitOpts(1), WithSaveCheckpoint(t.TempDir()+"/ck"))...); err == nil {
		t.Fatal("checkpointing base accepted")
	}
	// Rounds outliving the stream are rejected up front.
	if _, err := st.Retrain(context.Background(), RetrainOptions{Rounds: 100, Advance: 64},
		streamFitOpts(1)...); err == nil {
		t.Fatal("rounds outliving the stream accepted")
	}
	// Repartitioning requires spatial sharding at the option boundary.
	var ice *InvalidConfigError
	if _, err := NewExperiment("Chickenpox-Hungary", WithRepartition(4, 2)); !errors.As(err, &ice) {
		t.Fatalf("repartition without spatial: %v", err)
	}
	if _, err := NewExperiment("Chickenpox-Hungary", WithNodeWeights(make([]float64, 20))); !errors.As(err, &ice) {
		t.Fatalf("node weights without spatial: %v", err)
	}
}

// TestRoundOptionsKeepTheirMeaning: an option supplied per round means what
// it means in the base set. WithShuffle(ShuffleGlobal) is the option whose
// "explicitly set" bit used to live outside the configuration the hook
// edited, so the per-round form silently fell back to GenDistIndex's batch
// shuffling.
func TestRoundOptionsKeepTheirMeaning(t *testing.T) {
	opts := append(streamFitOpts(2), WithStrategy(StrategyGenDistIndex))
	replay := func(ro RetrainOptions, opts ...Option) *Report {
		t.Helper()
		st, err := NewStream("Chickenpox-Hungary", 42, StreamOptions{Window: 200})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		rounds, err := st.Retrain(context.Background(), ro, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return rounds[0].Report
	}
	unset := replay(RetrainOptions{}, opts...)
	base := replay(RetrainOptions{}, append(opts, WithShuffle(ShuffleGlobal))...)
	perRound := replay(RetrainOptions{
		RoundOptions: func(int) []Option { return []Option{WithShuffle(ShuffleGlobal)} },
	}, opts...)
	if !reflect.DeepEqual(perRound.Curve, base.Curve) {
		t.Fatalf("per-round WithShuffle(ShuffleGlobal) %+v != base-set %+v", perRound.Curve, base.Curve)
	}
	if reflect.DeepEqual(perRound.Curve, unset.Curve) {
		t.Fatal("per-round WithShuffle(ShuffleGlobal) was dropped: curve equals the batch-shuffle default")
	}
}

// TestRoundOptionsAreRechecked: the round's configuration is re-checked after
// the hook ran — the options Retrain rejects in the base set are rejected per
// round too, and an illegal configuration never spends MaxRetries.
func TestRoundOptionsAreRechecked(t *testing.T) {
	st, err := NewStream("Chickenpox-Hungary", 1, StreamOptions{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for name, opt := range map[string]Option{
		"WithSaveCheckpoint": WithSaveCheckpoint(t.TempDir() + "/ck"),
		"WithScale":          WithScale(0.5),
	} {
		rounds, err := st.Retrain(context.Background(), RetrainOptions{
			RoundOptions: func(int) []Option { return []Option{opt} },
		}, streamFitOpts(1)...)
		if err == nil || len(rounds) != 0 {
			t.Fatalf("per-round %s accepted (%d rounds, err %v)", name, len(rounds), err)
		}
	}
	// Node weights of the wrong length are only discovered once the engine
	// holds the graph, i.e. inside the attempt: still typed, still not retried.
	calls := 0
	_, err = st.Retrain(context.Background(), RetrainOptions{
		MaxRetries: 3,
		RoundOptions: func(int) []Option {
			calls++
			return []Option{WithSpatial(2), WithNodeWeights(make([]float64, 3))}
		},
	}, streamFitOpts(1)...)
	var ice *InvalidConfigError
	if !errors.As(err, &ice) || ice.Field != "NodeWeights" {
		t.Fatalf("short node weights: %v, want *InvalidConfigError on NodeWeights", err)
	}
	if calls != 1 {
		t.Fatalf("an illegal configuration was attempted %d times, want 1", calls)
	}
}
