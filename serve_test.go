package pgti

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fitTiny trains a small experiment and builds n distinct live windows.
func fitTiny(t *testing.T, opts ...Option) (*Experiment, []Window) {
	t.Helper()
	all := append(tinyOpts(StrategyIndex, 1), opts...)
	exp, err := NewExperiment("PeMS-BAY", all...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	pred, err := exp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]Window, 16)
	for i := range ws {
		vals := make([]float64, pred.Horizon()*pred.Nodes()*pred.Features())
		for j := range vals {
			vals[j] = 35 + float64(i)*2 + float64(j%5)
		}
		ws[i] = Window{Values: vals}
	}
	return exp, ws
}

func sameForecast(t *testing.T, label string, got, want Forecast) {
	t.Helper()
	if len(got.Pred) != len(want.Pred) {
		t.Fatalf("%s: %d values vs %d", label, len(got.Pred), len(want.Pred))
	}
	for j := range want.Pred {
		if math.Float64bits(got.Pred[j]) != math.Float64bits(want.Pred[j]) {
			t.Fatalf("%s: value %d: %v != %v", label, j, got.Pred[j], want.Pred[j])
		}
	}
}

// TestServerCoalescedEqualsSerialPredictor is the tentpole acceptance gate:
// N goroutines racing through the coalescing queue (1 and 2 replicas) get
// forecasts bitwise identical to serial Predictor.Predict calls.
func TestServerCoalescedEqualsSerialPredictor(t *testing.T) {
	exp, ws := fitTiny(t)
	pred, err := exp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]Forecast, len(ws))
	for i, w := range ws {
		if serial[i], err = pred.Predict(w); err != nil {
			t.Fatal(err)
		}
	}

	for _, replicas := range []int{1, 2} {
		srv, err := NewServer(exp,
			WithReplicas(replicas),
			WithMaxBatch(4),
			WithBatchWindow(5*time.Millisecond),
			WithQueueDepth(len(ws)),
		)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Forecast, len(ws))
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func(i int, w Window) {
				defer wg.Done()
				f, err := srv.Predict(context.Background(), w)
				if err != nil {
					t.Errorf("replicas=%d window %d: %v", replicas, i, err)
					return
				}
				got[i] = f
			}(i, w)
		}
		wg.Wait()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			t.FailNow()
		}
		for i := range ws {
			sameForecast(t, "coalesced", got[i], serial[i])
		}
		st := srv.Stats()
		if st.Completed != int64(len(ws)) {
			t.Fatalf("replicas=%d: completed %d, want %d", replicas, st.Completed, len(ws))
		}
		if st.Replicas != replicas {
			t.Fatalf("stats replicas %d, want %d", st.Replicas, replicas)
		}
	}
}

// TestServerSwapUnderLoad retrains to different weights and swaps them in
// while requests are in flight: every forecast must bitwise-equal either
// the old-weights or the new-weights result — never a torn mixture.
func TestServerSwapUnderLoad(t *testing.T) {
	expOld, ws := fitTiny(t)
	expNew, _ := fitTiny(t, WithEpochs(4)) // different weights, same shape

	predOld, err := expOld.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	predNew, err := expNew.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	oldF, err := predOld.Predict(w)
	if err != nil {
		t.Fatal(err)
	}
	newF, err := predNew.Predict(w)
	if err != nil {
		t.Fatal(err)
	}
	// The test is vacuous if retraining landed on identical weights.
	differ := false
	for j := range oldF.Pred {
		if oldF.Pred[j] != newF.Pred[j] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("old and new weights forecast identically; pick different epochs")
	}

	srv, err := NewServer(expOld, WithMaxBatch(4), WithBatchWindow(time.Millisecond), WithQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const loaders, rounds = 4, 8
	var wg sync.WaitGroup
	results := make(chan Forecast, loaders*rounds)
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f, err := srv.Predict(context.Background(), w)
				if err != nil {
					t.Errorf("Predict under swap: %v", err)
					return
				}
				results <- f
			}
		}()
	}
	// Swap mid-load, repeatedly, between the two weight sets.
	for i := 0; i < 6; i++ {
		src := expNew
		if i%2 == 1 {
			src = expOld
		}
		if err := srv.Swap(src); err != nil {
			t.Fatalf("Swap: %v", err)
		}
	}
	wg.Wait()
	close(results)

	sawAny := false
	for f := range results {
		sawAny = true
		matchOld, matchNew := true, true
		for j := range f.Pred {
			if math.Float64bits(f.Pred[j]) != math.Float64bits(oldF.Pred[j]) {
				matchOld = false
			}
			if math.Float64bits(f.Pred[j]) != math.Float64bits(newF.Pred[j]) {
				matchNew = false
			}
		}
		if !matchOld && !matchNew {
			t.Fatal("forecast matches neither weight set: torn snapshot observed")
		}
	}
	if !sawAny {
		t.Fatal("no results collected")
	}
}

// TestServerShedsWithTypedError saturates a tiny queue and requires the
// typed *OverloadedError via errors.As. MaxBatch exceeds the flood size, so
// the count trigger never fires: every request sits in the queue until the
// batch window lapses, and exactly QueueDepth of them are admitted.
func TestServerShedsWithTypedError(t *testing.T) {
	exp, ws := fitTiny(t)
	const flood, depth = 32, 2
	srv, err := NewServer(exp,
		WithMaxBatch(2*flood),
		WithQueueDepth(depth),
		WithBatchWindow(200*time.Millisecond),
		WithCostModel(func(b int) time.Duration { return time.Duration(b) * time.Millisecond }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	errs := make(chan error, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Predict(context.Background(), ws[i%len(ws)])
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)

	shed := 0
	for err := range errs {
		if err == nil {
			continue
		}
		var ov *OverloadedError
		if !errors.As(err, &ov) {
			t.Fatalf("overload produced %v, want *OverloadedError", err)
		}
		if ov.QueueDepth != depth || ov.RetryAfter <= 0 {
			t.Fatalf("shed hint malformed: %+v", ov)
		}
		shed++
	}
	if shed != flood-depth {
		t.Fatalf("shed %d of %d, want exactly %d (queue admits %d)", shed, flood, flood-depth, depth)
	}
	if st := srv.Stats(); st.Shed != int64(shed) || st.Completed != depth {
		t.Fatalf("stats %+v, want shed=%d completed=%d", st, shed, depth)
	}
}

// TestServerClosedSentinel: Close stops admission with ErrServerClosed and
// is idempotent; deadlines bound queued requests.
func TestServerClosedSentinel(t *testing.T) {
	exp, ws := fitTiny(t)
	srv, err := NewServer(exp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Predict(context.Background(), ws[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Predict(context.Background(), ws[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-close Predict: %v, want ErrServerClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Deadline path: a 1ns budget lapses before any batch can dispatch.
	srv2, err := NewServer(exp, WithDeadline(time.Nanosecond), WithBatchWindow(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := srv2.Predict(context.Background(), ws[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined Predict: %v, want DeadlineExceeded", err)
	}
}

// TestNewServerValidation: unfitted experiments and illegal options fail
// with the package's typed errors.
func TestNewServerValidation(t *testing.T) {
	exp, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyIndex, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(exp); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("NewServer before Fit: %v, want ErrNotFitted", err)
	}
	var ice *InvalidConfigError
	if _, err := NewServer(exp, WithReplicas(-1)); !errors.As(err, &ice) {
		t.Fatalf("negative replicas: %v, want *InvalidConfigError", err)
	}
	if _, err := NewServer(exp, WithDeadline(-time.Second)); !errors.As(err, &ice) {
		t.Fatalf("negative deadline: %v, want *InvalidConfigError", err)
	}
}

// TestServerSwapGenerationsAreWhole: callers predict on a 2-replica server
// while Swap installs a run of separately fitted models one after another.
// The replicas read one served core through an atomic pointer, so every
// forecast must equal, bitwise, the serial Predictor's of exactly one
// generation — never a mix of two.
func TestServerSwapGenerationsAreWhole(t *testing.T) {
	const gens = 4
	exps := make([]*Experiment, gens+1) // generation 0 is the one served first
	var ws []Window
	exps[0], ws = fitTiny(t, WithEpochs(1))
	ws = ws[:4]
	for g := 1; g <= gens; g++ {
		exps[g], _ = fitTiny(t, WithEpochs(1), WithSeed(uint64(100+g)))
	}
	want := make([][]Forecast, gens+1)
	for g, exp := range exps {
		pred, err := exp.Predictor()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			f, err := pred.Predict(w)
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], f)
		}
	}
	// matches lists the generations whose serial forecast of window i is f.
	matches := func(i int, f Forecast) (gs []int) {
		for g := range want {
			same := len(f.Pred) == len(want[g][i].Pred)
			for j := 0; same && j < len(f.Pred); j++ {
				same = math.Float64bits(f.Pred[j]) == math.Float64bits(want[g][i].Pred[j])
			}
			if same {
				gs = append(gs, g)
			}
		}
		return gs
	}
	for g := range want {
		for i := range ws {
			if gs := matches(i, want[g][i]); len(gs) != 1 {
				t.Fatalf("generation %d forecasts window %d like generations %v; the test needs them distinct", g, i, gs)
			}
		}
	}

	srv, err := NewServer(exps[0], WithReplicas(2), WithMaxBatch(4), WithBatchWindow(time.Millisecond), WithQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const callers, rounds = 4, 24
	type result struct {
		window int
		f      Forecast
		err    error
	}
	results := make(chan result, callers*rounds) // every caller sends rounds results
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(ws)
				f, err := srv.Predict(context.Background(), ws[i])
				results <- result{i, f, err}
			}
		}(c)
	}
	// Install the next generation after every few forecasts, so the swaps
	// land between and during the callers' requests.
	seen := map[int]bool{}
	check := func(r result) {
		if r.err != nil {
			t.Fatalf("Predict under swaps: %v", r.err)
		}
		g := matches(r.window, r.f)
		if len(g) != 1 {
			t.Fatalf("window %d forecast matches generations %v, want exactly one", r.window, g)
		}
		seen[g[0]] = true
	}
	for g := 1; g <= gens; g++ {
		for k := 0; k < callers*rounds/(gens+1); k++ {
			check(<-results)
		}
		if err := srv.Swap(exps[g]); err != nil {
			t.Fatalf("Swap generation %d: %v", g, err)
		}
	}
	wg.Wait()
	close(results)
	for r := range results {
		check(r)
	}
	if len(seen) < 2 {
		t.Fatalf("forecasts came from generations %v only; the swaps never met the load", seen)
	}
}

// TestServerReplicasReadOneSnapshot: the replicas are concurrency slots
// over one parameter snapshot, so building a server of eight allocates what
// building a server of one does, give or take bookkeeping well below one
// parameter copy — a copy per replica would add seven. Bytes allocated
// bound what the server can hold and, unlike the live heap, do not depend
// on when the collector last ran; the least of three builds drops what
// other goroutines allocated meanwhile.
func TestServerReplicasReadOneSnapshot(t *testing.T) {
	exp, _ := fitTiny(t)
	var paramBytes int64
	allocated := func(replicas int) int64 {
		least := int64(math.MaxInt64)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			srv, err := NewServer(exp, WithReplicas(replicas))
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			paramBytes = srv.live.Load().ParamBytes()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	one, eight := allocated(1), allocated(8)
	t.Logf("NewServer allocates %d B with 1 replica, %d B with 8; one parameter copy is %d B", one, eight, paramBytes)
	if eight-one >= paramBytes {
		t.Fatalf("8 replicas allocate %d B more than 1, at least one more parameter copy (%d B)", eight-one, paramBytes)
	}
}

// swapAllocated is the least, over three Swaps of src into srv, of the bytes
// one Swap allocates — the least drops what other goroutines allocated
// meanwhile.
func swapAllocated(t *testing.T, srv *Server, src *Experiment) int64 {
	t.Helper()
	least := int64(math.MaxInt64)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := srv.Swap(src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// TestServerSwapCostsOneParameterCopy: a Swap builds the new core's model
// with zero weights, copies the source's parameters into it once and stores
// one pointer, and a pool of eight replicas pays what a pool of one does —
// the replicas share the core a Swap replaces. At this model's shapes one
// Swap allocates 9 088 B, of which 6 024 B are the parameter copy and the
// rest the model's structure (its layers, variables and tensor headers); the
// ceiling is that figure plus 5 %.
func TestServerSwapCostsOneParameterCopy(t *testing.T) {
	const ceiling = 9542
	exp, _ := fitTiny(t)
	src, _ := fitTiny(t, WithSeed(7))
	swapped := func(replicas int) (allocated, paramBytes int64) {
		srv, err := NewServer(exp, WithReplicas(replicas))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		return swapAllocated(t, srv, src), srv.live.Load().ParamBytes()
	}
	one, paramBytes := swapped(1)
	eight, _ := swapped(8)
	t.Logf("Swap allocates %d B with 1 replica, %d B with 8; one parameter copy is %d B", one, eight, paramBytes)
	if one > ceiling {
		t.Fatalf("one Swap allocates %d B, ceiling %d B (one parameter copy is %d B)", one, ceiling, paramBytes)
	}
	if eight-one >= paramBytes {
		t.Fatalf("a Swap over 8 replicas allocates %d B more than over 1, at least one more parameter copy (%d B)", eight-one, paramBytes)
	}
}

// TestServerSwapServesSourceStatistics: a trained model is valid only with
// the normalization statistics of its training split, so after a Swap the
// server must forecast exactly what the source experiment's own Predictor
// does — weights and statistics both come from the source. The seed-7 fit
// draws a different dataset, so its statistics differ from the first
// model's.
func TestServerSwapServesSourceStatistics(t *testing.T) {
	exp, ws := fitTiny(t)
	src, _ := fitTiny(t, WithSeed(7))
	srv, err := NewServer(exp, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Swap(src); err != nil {
		t.Fatal(err)
	}
	pred, err := src.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws[:4] {
		want, err := pred.Predict(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.Predict(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		sameForecast(t, fmt.Sprintf("window %d after Swap", i), got, want)
	}
}

// TestServerSwapRejectsOtherArchitecture: a Swap whose source has another
// parameter layout, another window shape or no fit at all returns an error
// and leaves the old model serving, bitwise.
func TestServerSwapRejectsOtherArchitecture(t *testing.T) {
	exp, ws := fitTiny(t)
	wide, _ := fitTiny(t, WithHidden(16))
	other, err := NewExperiment("Chickenpox-Hungary", streamFitOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	unfitted, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyIndex, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(exp, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pred, err := exp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(wide); err == nil {
		t.Fatal("Swap from a hidden-16 model into a hidden-8 server succeeded")
	}
	if err := srv.Swap(other); err == nil {
		t.Fatal("Swap from a model over another window shape succeeded")
	}
	if err := srv.Swap(unfitted); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Swap from an unfitted experiment: %v, want ErrNotFitted", err)
	}
	for i, w := range ws[:4] {
		want, err := pred.Predict(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.Predict(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		sameForecast(t, fmt.Sprintf("window %d after rejected Swaps", i), got, want)
	}
}
