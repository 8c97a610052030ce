package pgti

// The modeled golden pins every schedule number the repo's modeled
// configurations produce: gradient sync at 8 workers, spatial and hybrid
// grids, the overlap and pipeline ablations, the index-batching strategies,
// the event-hook path, the serving tier, streaming retrains and the fault
// layer. Compute, collation and serving costs are pinned by explicit cost
// models, so each value is an exact virtual-clock quantity, identical run to
// run and at any GOMAXPROCS — compared with ==, never with a tolerance.
//
// Re-record after a deliberate change to a modeled number, in its own commit
// that lists the rows that moved:
//
//	go test . -run TestModeledGoldens -update

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/fault"
	"pgti/internal/graph"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/shard"
	"pgti/internal/sparse"
	"pgti/internal/stream"
	"pgti/internal/tensor"
)

var updateModeled = flag.Bool("update", false, "re-record testdata/modeled_goldens.jsonl from the code under test")

const modeledGoldens = "testdata/modeled_goldens.jsonl"

// modeledRow is one line of testdata/modeled_goldens.jsonl. Durations are
// nanoseconds and traffic is bytes, both whole numbers; ratios (qps, load
// spread, val MAE) are float64s, which encoding/json writes as the shortest
// decimal that parses back to the same bits, so == compares bit patterns.
type modeledRow struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// modeledCase runs one configuration once and returns its metrics; it fails
// t when the run breaks one of its own invariants (a hook that never fired,
// a recovery that never happened).
type modeledCase struct {
	name string
	run  func(t *testing.T) map[string]float64
}

// The metric sets of the shard.Train rows, by family.
var (
	ddpKeys      = []string{"virt-ns/epoch", "exposed-comm-ns", "wire-bytes/epoch", "bucket-bytes"}
	shardKeys    = []string{"virt-ns/epoch", "exposed-comm-ns", "halo-ns/epoch", "halo-bytes/epoch", "edge-cut"}
	overlapKeys  = []string{"virt-ns/epoch", "exposed-comm-ns", "halo-ns/epoch", "halo-hidden-ns", "comm-hidden-ns"}
	pipelineKeys = []string{"virt-ns/epoch", "exposed-comm-ns", "halo-hidden-ns", "comm-hidden-ns", "val-MAE"}
	strategyKeys = []string{"virt-ns/epoch", "exposed-comm-ns", "wire-bytes/epoch"}
)

func modeledCases() []modeledCase {
	hier := cluster.Topology{Nodes: 2, GPUsPerNode: 4}
	return []modeledCase{
		// DDP gradient sync at 8 workers: flatten baseline, bucketed
		// overlapping ring, hierarchical (2 nodes x 4 GPUs), fp16 buckets
		// and the bucket-size autotuner.
		{"DDPBucketedOverlap8", trainRow(1, 8, ddpKeys, bucketed(nil))},
		{"DDPFlatten8", trainRow(1, 8, ddpKeys, bucketed(func(c *shard.Config) { c.Algo = ddp.GradAlgoFlat }))},
		{"DDPHierarchical8", trainRow(1, 8, ddpKeys, bucketed(func(c *shard.Config) {
			c.Algo, c.Topology = ddp.GradAlgoHierarchical, hier
		}))},
		{"DDPFP16Ring8", trainRow(1, 8, ddpKeys, bucketed(func(c *shard.Config) { c.FP16 = true }))},
		{"DDPFP16Hierarchical8", trainRow(1, 8, ddpKeys, bucketed(func(c *shard.Config) {
			c.Algo, c.Topology, c.FP16 = ddp.GradAlgoHierarchical, hier, true
		}))},
		{"DDPAutotune8", trainRow(1, 8, ddpKeys, func(_ *fabric, c *shard.Config) { c.AutoTuneBuckets = true })},

		// Spatial sharding: halo traffic and the partition's edge cut on
		// Shards x Replicas grids under the default overlapped schedules.
		{"ShardSpatial4", trainRow(4, 1, shardKeys, nil)},
		{"ShardHybrid2x2", trainRow(2, 2, shardKeys, nil)},
		{"ShardHybrid2x4", trainRow(2, 4, shardKeys, nil)},

		// The two overlap mechanisms in isolation: interior-first halo vs
		// the blocking gather, bucketed two-stage sync vs flatten — same
		// fabric, compute and bucket cap, so the deltas are the schedule.
		{"ShardOverlapBlocking2x2", trainRow(2, 2, overlapKeys, overlap(shard.HaloSyncBlocking, ddp.GradAlgoFlat))},
		{"ShardOverlapHalo2x2", trainRow(2, 2, overlapKeys, overlap(shard.HaloSyncOverlap, ddp.GradAlgoFlat))},
		{"ShardOverlapBucketed2x2", trainRow(2, 2, overlapKeys, overlap(shard.HaloSyncBlocking, ddp.GradAlgoRing))},
		{"ShardOverlapFull2x2", trainRow(2, 2, overlapKeys, overlap(shard.HaloSyncOverlap, ddp.GradAlgoRing))},
		{"ShardOverlapBlocking2x4", trainRow(2, 4, overlapKeys, overlap(shard.HaloSyncBlocking, ddp.GradAlgoFlat))},
		{"ShardOverlapHalo2x4", trainRow(2, 4, overlapKeys, overlap(shard.HaloSyncOverlap, ddp.GradAlgoFlat))},
		{"ShardOverlapBucketed2x4", trainRow(2, 4, overlapKeys, overlap(shard.HaloSyncBlocking, ddp.GradAlgoRing))},
		{"ShardOverlapFull2x4", trainRow(2, 4, overlapKeys, overlap(shard.HaloSyncOverlap, ddp.GradAlgoRing))},

		// The training pipeline on the hybrid grid: collation paid serially
		// or hidden by prefetch, the two-channel timeline, and bounded
		// staleness (K=0 is TwoChannel2x2) with its val-MAE cost.
		{"PipelineSerial2x2", trainRow(2, 2, pipelineKeys, pipeline(false, false, 0))},
		{"PipelinePrefetch2x2", trainRow(2, 2, pipelineKeys, pipeline(true, false, 0))},
		{"PipelineTwoChannel2x2", trainRow(2, 2, pipelineKeys, pipeline(true, true, 0))},
		{"PipelineSerial2x4", trainRow(2, 4, pipelineKeys, pipeline(false, false, 0))},
		{"PipelinePrefetch2x4", trainRow(2, 4, pipelineKeys, pipeline(true, false, 0))},
		{"PipelineTwoChannel2x4", trainRow(2, 4, pipelineKeys, pipeline(true, true, 0))},
		{"PipelineStaleK1_2x2", trainRow(2, 2, pipelineKeys, pipeline(true, true, 1))},
		{"PipelineStaleK4_2x2", trainRow(2, 2, pipelineKeys, pipeline(true, true, 4))},

		// The distributed index-batching strategies at 4 workers.
		{"IndexBatchDistIndex4", trainRow(1, 4, strategyKeys, nil)},
		{"IndexBatchGenDistIndex4", trainRow(1, 4, strategyKeys, func(f *fabric, c *shard.Config) {
			c.Feed, c.Sampler = shard.PartitionedStore{}, ddp.BatchShuffle
		})},

		// The event hooks must not perturb the modeled timeline: Hooked4
		// and Hookless4 are the same row (TestModeledClaims).
		{"EventStreamHooked4", eventStreamRow(true)},
		{"EventStreamHookless4", eventStreamRow(false)},

		// The serving tier, offered load pinned at each pool's modeled
		// capacity: serial serves cost(1) = 2.25 ms per request, a
		// coalescing replica 8 per cost(8) = 4 ms, two replicas twice that.
		{"ServeSerial", serveRow(1, 1, 1, 0, 2250*time.Microsecond)},
		{"ServeCoalesce8", serveRow(1, 8, 8, 0, 500*time.Microsecond)},
		{"ServeReplicas2x8", serveRow(2, 8, 16, 0, 250*time.Microsecond)},
		{"ServeSwapUnderLoad", serveRow(1, 8, 8, 6, 500*time.Microsecond)},

		{"StreamReplay2x2", streamReplayRow},
		{"StreamRepartition2x2", streamRepartitionRow},
		{"FaultRecovery2x2", faultRecoveryRow},
		{"FaultServeFailover", faultServeFailoverRow},
	}
}

// TestModeledGoldens runs every modeled configuration once and compares all
// of its metrics exactly with testdata/modeled_goldens.jsonl.
func TestModeledGoldens(t *testing.T) {
	cases := modeledCases()
	want := map[string]map[string]float64{}
	if _, err := os.Stat(modeledGoldens); err == nil || !*updateModeled {
		want = readModeledGoldens(t)
	}
	if !*updateModeled {
		known := map[string]bool{}
		for _, c := range cases {
			known[c.name] = true
			if _, ok := want[c.name]; !ok {
				t.Errorf("%s: no golden row; re-record with -update", c.name)
			}
		}
		for name := range want {
			if !known[name] {
				t.Errorf("%s: golden row for no configuration; re-record with -update", name)
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			if *updateModeled {
				want[c.name] = got
				return
			}
			compareModeled(t, got, want[c.name])
		})
	}
	if *updateModeled && !t.Failed() {
		writeModeledGoldens(t, cases, want)
	}
}

// TestModeledClaims asserts the schedule claims README states in prose over
// the recorded rows; it runs nothing.
func TestModeledClaims(t *testing.T) {
	rows := readModeledGoldens(t)
	get := func(row, metric string) float64 {
		t.Helper()
		v, ok := rows[row][metric]
		if !ok {
			t.Fatalf("golden row %s has no %s", row, metric)
		}
		return v
	}
	// descending checks that metric strictly falls along names.
	descending := func(metric string, names ...string) {
		t.Helper()
		for i := 1; i < len(names); i++ {
			if a, b := get(names[i-1], metric), get(names[i], metric); !(a > b) {
				t.Errorf("%s: %s %s is not above %s %s", metric, names[i-1], num(a), names[i], num(b))
			}
		}
	}
	same := func(a, b string) {
		t.Helper()
		if len(rows[a]) == 0 || !reflect.DeepEqual(rows[a], rows[b]) {
			t.Errorf("%s %v differs from %s %v", a, rows[a], b, rows[b])
		}
	}

	// "Pipelined training": prefetch hides collation, the two-channel
	// timeline hides the halo, staleness hides the gradient sync.
	descending("virt-ns/epoch", "PipelineSerial2x2", "PipelinePrefetch2x2", "PipelineTwoChannel2x2", "PipelineStaleK4_2x2")

	// "Communication overlap": each mechanism beats the blocking schedule,
	// both together beat the halo overlap alone, and the halo time is the
	// same throughout — the win is purely scheduling.
	for _, grid := range []string{"2x2", "2x4"} {
		row := func(mode string) string { return "ShardOverlap" + mode + grid }
		descending("virt-ns/epoch", row("Blocking"), row("Halo"), row("Full"))
		descending("virt-ns/epoch", row("Blocking"), row("Bucketed"))
		for _, mode := range []string{"Halo", "Bucketed", "Full"} {
			if got, want := get(row(mode), "halo-ns/epoch"), get(row("Blocking"), "halo-ns/epoch"); got != want {
				t.Errorf("%s halo-ns/epoch %s, blocking %s", row(mode), num(got), num(want))
			}
		}
	}

	// "The collective stack": fp16 buckets put a quarter of the bytes on
	// the wire.
	for fp16, fp64 := range map[string]string{"DDPFP16Ring8": "DDPBucketedOverlap8", "DDPFP16Hierarchical8": "DDPHierarchical8"} {
		if a, b := get(fp16, "wire-bytes/epoch"), get(fp64, "wire-bytes/epoch"); 4*a != b {
			t.Errorf("%s wire %s bytes is not a quarter of %s's %s", fp16, num(a), fp64, num(b))
		}
	}

	// Observability cannot tax the loop; swaps cost nothing on the modeled
	// serving timeline.
	same("EventStreamHooked4", "EventStreamHookless4")
	same("ServeSwapUnderLoad", "ServeCoalesce8")

	// "Serving": coalescing at least doubles the serial throughput, and a
	// second replica raises it again and pulls the tail back in.
	if a, b := get("ServeCoalesce8", "qps"), get("ServeSerial", "qps"); a < 2*b {
		t.Errorf("coalesced qps %v is under twice the serial %v", a, b)
	}
	descending("qps", "ServeReplicas2x8", "ServeCoalesce8")
	descending("p99-ns", "ServeCoalesce8", "ServeReplicas2x8")

	// "Streaming": one chunk migration cuts the load spread from 9 to 1.5.
	if got := get("StreamRepartition2x2", "repartitions"); got != 1 {
		t.Errorf("repartitions %v, want 1", got)
	}
	if got := get("StreamRepartition2x2", "static-spread"); got != 9 {
		t.Errorf("static spread %v, want 9", got)
	}
	if got := get("StreamRepartition2x2", "load-spread"); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("load spread %v, want 1.5", got)
	}

	// "Fault tolerance": recovery and failover cost modeled time, and the
	// booked recovery charge is part of the run's overhead.
	if over, rec := get("FaultRecovery2x2", "overhead-ns"), get("FaultRecovery2x2", "recovery-ns"); !(over >= rec && rec > 0) {
		t.Errorf("recovery overhead %s ns, recovery charge %s ns", num(over), num(rec))
	}
	if got := get("FaultServeFailover", "failover-overhead-ns"); !(got > 0) {
		t.Errorf("failover overhead %v ns", got)
	}
}

// compareModeled reports every metric whose value differs from the golden,
// or that only one side has.
func compareModeled(t *testing.T, got, want map[string]float64) {
	t.Helper()
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case !gok || !wok:
			t.Errorf("%s: present in run %v, in golden %v", k, gok, wok)
		case g != w:
			t.Errorf("%s = %s, golden %s (%+.4g%%)", k, num(g), num(w), 100*(g-w)/math.Abs(w))
		}
	}
}

// num prints a metric in full, without an exponent.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func readModeledGoldens(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	f, err := os.Open(modeledGoldens)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var row modeledRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		rows[row.Name] = row.Metrics
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// writeModeledGoldens writes one row per case, in case order; rows a -run
// filter skipped keep their recorded values.
func writeModeledGoldens(t *testing.T, cases []modeledCase, rows map[string]map[string]float64) {
	t.Helper()
	f, err := os.Create(modeledGoldens)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetEscapeHTML(false)
	n := 0
	for _, c := range cases {
		if m, ok := rows[c.name]; ok {
			if err := enc.Encode(modeledRow{Name: c.name, Metrics: m}); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d rows in %s", n, modeledGoldens)
}

// --- shard.Train rows -----------------------------------------------------------

// fabric is the tiny road network every shard.Train row trains on: 24
// nodes, 160 entries, horizon 3, a 2-support PGT-DCRNN with 16 hidden units.
type fabric struct {
	t        *testing.T
	g        *graph.Graph
	supports []*sparse.CSR
	data     *batching.IndexDataset
	split    batching.Split
}

func newFabric(t *testing.T) *fabric {
	t.Helper()
	g, err := graph.RoadNetwork(16, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	raw := tensor.Randn(tensor.NewRNG(17), 160, 24, 1)
	data, err := batching.NewIndexDataset(raw, 3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fabric{t, g, []*sparse.CSR{fwd, bwd}, data, batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)}
}

func fabricModel(seed uint64, props []nn.Propagator) nn.SeqModel {
	return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 16, 3)
}

func (f *fabric) paramBytes() int64 {
	return nn.ParameterBytes(fabricModel(1, nn.WrapSupports(f.supports)))
}

// fabricConfig is one epoch on a Shards x Replicas grid over a bandwidth-starved
// fabric (10 MB/s, 2 µs latency, 1 ms dispatch) with compute pinned at 2 ms
// per batch, so every clock is modeled and communication dominates.
func fabricConfig(shards, replicas int) shard.Config {
	return shard.Config{
		Shards: shards, Replicas: replicas, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 1,
		Net:         cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond},
		ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
	}
}

// train runs cfg and returns the named metrics of its result.
func (f *fabric) train(cfg shard.Config, keys []string) map[string]float64 {
	f.t.Helper()
	res, err := shard.Train(f.data, f.split, f.g, f.supports, fabricModel, cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	all := map[string]float64{
		"virt-ns/epoch":    float64(res.VirtualTime),
		"exposed-comm-ns":  float64(res.CommTime),
		"wire-bytes/epoch": float64(res.GradSyncBytes),
		"bucket-bytes":     float64(res.GradBucketBytes),
		"halo-ns/epoch":    float64(res.HaloTime),
		"halo-bytes/epoch": float64(res.HaloBytes),
		"halo-hidden-ns":   float64(res.HaloHiddenTime),
		"comm-hidden-ns":   float64(res.CommHiddenTime),
		"edge-cut":         float64(res.EdgeCut),
		"val-MAE":          res.Curve[len(res.Curve)-1].ValMAE,
	}
	m := make(map[string]float64, len(keys))
	for _, k := range keys {
		m[k] = all[k]
	}
	return m
}

// trainRow is a case that trains the base config on a shards x replicas
// grid, adjusted by mutate when it is non-nil.
func trainRow(shards, replicas int, keys []string, mutate func(*fabric, *shard.Config)) func(*testing.T) map[string]float64 {
	return func(t *testing.T) map[string]float64 {
		f := newFabric(t)
		cfg := fabricConfig(shards, replicas)
		if mutate != nil {
			mutate(f, &cfg)
		}
		return f.train(cfg, keys)
	}
}

// bucketed caps gradient buckets at a quarter of the model, then applies
// mutate.
func bucketed(mutate func(*shard.Config)) func(*fabric, *shard.Config) {
	return func(f *fabric, c *shard.Config) {
		c.BucketBytes = f.paramBytes() / 4
		if mutate != nil {
			mutate(c)
		}
	}
}

func overlap(halo shard.HaloSyncMode, algo ddp.GradAlgo) func(*fabric, *shard.Config) {
	return bucketed(func(c *shard.Config) { c.HaloSync, c.Algo = halo, algo })
}

// pipeline adds a modeled 500 µs collation per batch (on the paper's sensor
// graphs collation is a visible slice of the step, which the tiny fabric
// would hide), optionally prefetched; twoChannel puts each replica group on
// its own node, so halo traffic stays intra-node while the gradient sync
// crosses nodes on the other channel.
func pipeline(prefetch, twoChannel bool, staleness int) func(*fabric, *shard.Config) {
	return func(_ *fabric, c *shard.Config) {
		c.AssembleCost = func(int) time.Duration { return 500 * time.Microsecond }
		c.Prefetch, c.Staleness = prefetch, staleness
		if twoChannel {
			c.Topology = cluster.Topology{Nodes: c.Replicas, GPUsPerNode: c.Shards}
		}
	}
}

func eventStreamRow(hook bool) func(*testing.T) map[string]float64 {
	return func(t *testing.T) map[string]float64 {
		f := newFabric(t)
		cfg := fabricConfig(1, 4)
		events := 0
		if hook {
			cfg.OnEpoch = func(metrics.EpochRecord) { events++ }
			cfg.OnAutotuneLock = func(int64) { events++ }
		}
		m := f.train(cfg, strategyKeys)
		if hook && events == 0 {
			t.Fatal("epoch hook never fired")
		}
		return m
	}
}

// --- serving rows ----------------------------------------------------------------

var (
	serveFixtureOnce sync.Once
	serveFixtureExp  *Experiment
	serveFixtureWin  Window
	serveFixtureErr  error
)

// serveFixture fits the tiny serving experiment once per process.
func serveFixture(t *testing.T) (*Experiment, Window) {
	t.Helper()
	serveFixtureOnce.Do(func() {
		exp, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyIndex, 1)...)
		if err == nil {
			_, err = exp.Fit(context.Background())
		}
		var pred *Predictor
		if err == nil {
			pred, err = exp.Predictor()
		}
		if err != nil {
			serveFixtureErr = err
			return
		}
		vals := make([]float64, pred.Horizon()*pred.Nodes()*pred.Features())
		for i := range vals {
			vals[i] = 55 + float64(i%9)
		}
		serveFixtureExp, serveFixtureWin = exp, Window{Values: vals}
	})
	if serveFixtureErr != nil {
		t.Fatal(serveFixtureErr)
	}
	return serveFixtureExp, serveFixtureWin
}

// serveCost is the explicit modeled forward cost: a 2 ms launch (weights
// streamed once per batch, the term coalescing amortizes) plus 250 µs per
// window.
func serveCost(batch int) time.Duration {
	return 2*time.Millisecond + time.Duration(batch)*250*time.Microsecond
}

// serveRow drives callers goroutines through 16 barriered closed-loop
// request waves (plus swaps mid-load) under an open-loop arrival process.
// Every wave splits into full MaxBatch batches that the count trigger (never
// the window timer) dispatches, and the arrival stamps come from admission
// order, so the modeled stats are exact.
func serveRow(replicas, maxBatch, callers, swaps int, interarrival time.Duration) func(*testing.T) map[string]float64 {
	return func(t *testing.T) map[string]float64 {
		const rounds = 16
		exp, w := serveFixture(t)
		srv, err := NewServer(exp,
			WithReplicas(replicas),
			WithMaxBatch(maxBatch),
			WithBatchWindow(time.Second),
			WithQueueDepth(2*callers),
			WithCostModel(serveCost),
			WithArrivalProcess(interarrival),
		)
		if err != nil {
			t.Fatal(err)
		}
		// Swaps run concurrently with the request waves; they leave the
		// modeled timeline untouched.
		swapDone := make(chan struct{})
		go func() {
			defer close(swapDone)
			for i := 0; i < swaps; i++ {
				if err := srv.Swap(exp); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		// Persistent workers: waking a parked goroutine is far faster than
		// the real forward, so a whole wave enqueues before its first batch
		// completes and the modeled arrivals coincide.
		begin := make(chan struct{})
		results := make(chan error, callers)
		for g := 0; g < callers; g++ {
			go func() {
				for range begin {
					_, err := srv.Predict(context.Background(), w)
					results <- err
				}
			}()
		}
		for r := 0; r < rounds; r++ {
			for g := 0; g < callers; g++ {
				begin <- struct{}{}
			}
			for g := 0; g < callers; g++ {
				if err := <-results; err != nil {
					t.Error(err)
				}
			}
		}
		close(begin)
		<-swapDone
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		if want := int64(callers * rounds); st.Completed != want {
			t.Fatalf("completed %d, want %d", st.Completed, want)
		}
		return map[string]float64{
			"qps":     st.QPS,
			"p50-ns":  float64(st.P50),
			"p99-ns":  float64(st.P99),
			"virt-ns": float64(st.Virtual),
		}
	}
}

// faultServeFailoverRow drives 16 sequential requests through a two-replica
// pool whose first replica dies at its second forward: the batch retries on
// the healthy replica under the modeled backoff and the pool degrades to one.
// It pins the degraded session's p50/p99 and the failover overhead against
// an identical fault-free session.
func faultServeFailoverRow(t *testing.T) map[string]float64 {
	const requests = 16
	exp, w := serveFixture(t)
	session := func(faulty bool) ServeStats {
		opts := []ServeOption{
			WithReplicas(2), WithMaxBatch(1),
			WithBatchWindow(time.Second), WithQueueDepth(8),
			WithCostModel(serveCost),
		}
		if faulty {
			opts = append(opts,
				WithReplicaFailure(0, 2),
				WithServeRetryBackoff(4*time.Millisecond))
		}
		srv, err := NewServer(exp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < requests; r++ {
			if _, err := srv.Predict(context.Background(), w); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return srv.Stats()
	}
	clean := session(false)
	st := session(true)
	if st.Completed != requests || st.Retries != 1 || st.EvictedReplicas != 1 || st.Replicas != 1 {
		t.Fatalf("stats completed=%d retries=%d evicted=%d replicas=%d, want %d/1/1/1",
			st.Completed, st.Retries, st.EvictedReplicas, st.Replicas, requests)
	}
	return map[string]float64{
		"p50-ns":               float64(st.P50),
		"p99-ns":               float64(st.P99),
		"failover-overhead-ns": float64(st.P99 - clean.P99),
	}
}

// --- streaming and fault rows ------------------------------------------------------

// streamMeta is a synthetic dataset the size of the shard.Train fabric,
// streamed through the bounded ingestion ring instead of materialized.
var streamMeta = dataset.Meta{
	Name: "StreamBench", Domain: dataset.Traffic,
	Nodes: 24, Entries: 160, RawFeatures: 1,
	Horizon: 3, PeriodSteps: 48, NeighborsK: 4,
}

// streamBase is the 2 shards x 2 replicas grid the streaming rows retrain
// under, with modeled compute and collation costs.
func streamBase(epochs int) core.Config {
	return core.Config{
		Model: core.ModelPGTDCRNN, Strategy: core.DistIndex, Hidden: 16, K: 1,
		Config: shard.Config{
			Replicas: 2, Shards: 2,
			BatchSize: 2, Epochs: epochs, LR: 0.01, Seed: 1,
			Prefetch:     true,
			ComputeCost:  func(int) time.Duration { return 2 * time.Millisecond },
			AssembleCost: func(int) time.Duration { return 500 * time.Microsecond },
		},
	}
}

// streamRound opens a fresh stream over streamMeta, replays it in one full
// window through the rolling retrainer and returns the round's report.
func streamRound(t *testing.T, base core.Config) *core.Report {
	t.Helper()
	src, err := stream.NewSource(streamMeta, base.Seed, stream.Options{Window: streamMeta.Entries})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rt, err := stream.NewRetrainer(src, stream.RetrainConfig{Base: base, Window: streamMeta.Entries, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	done, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return done[len(done)-1].Report
}

// loadSpread is the max/min ratio of the per-shard structural compute
// shares — 1.0 is perfectly balanced.
func loadSpread(loads []float64) float64 {
	lo, hi := loads[0], loads[0]
	for _, l := range loads[1:] {
		lo, hi = min(lo, l), max(hi, l)
	}
	return hi / lo
}

// streamReplayRow is the streaming contract's unit of cost: ingest the ring,
// materialize, fit under modeled costs.
func streamReplayRow(t *testing.T) map[string]float64 {
	rep := streamRound(t, streamBase(1))
	return map[string]float64{
		"virt-ns/round":   float64(rep.VirtualTime),
		"exposed-comm-ns": float64(rep.CommTime),
		"halo-ns/round":   float64(rep.HaloTime),
	}
}

// streamRepartitionRow injects a 9:1 compute skew into one shard of a
// count-balanced partition (StaticPartition pins the imbalanced start) and
// lets mid-run chunk migration correct it while the window streams in. It
// pins the round time, the residual load spread against the static run's,
// and the migration count.
func streamRepartitionRow(t *testing.T) map[string]float64 {
	// Weight shard 0 of the count-based plan 9x, reproducing the partition
	// the engine builds from the same generated graph.
	ds, err := dataset.Generate(streamMeta, 1)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := ds.Graph.TransitionMatrices()
	plan, err := shard.BuildPlan(ds.Graph, []*sparse.CSR{fwd, bwd}, 2)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, ds.Graph.N)
	for i := range weights {
		weights[i] = 1
	}
	for _, u := range plan.Parts[0].Own {
		weights[u] = 9
	}
	skewed := streamBase(3)
	skewed.NodeWeights = weights
	skewed.StaticPartition = true
	static := streamRound(t, skewed)

	elastic := skewed
	elastic.Repartition = shard.Repartition{ChunkSize: 4, Threshold: 2}
	rep := streamRound(t, elastic)
	if rep.Repartitions == 0 {
		t.Fatal("injected skew never triggered a repartition")
	}
	return map[string]float64{
		"virt-ns/round": float64(rep.VirtualTime),
		"load-spread":   loadSpread(rep.ShardLoads),
		"static-spread": loadSpread(static.ShardLoads),
		"repartitions":  float64(rep.Repartitions),
	}
}

// faultCfg is the fully-modeled 2 replicas x 2 shards grid the recovery row
// runs under: with both cost models pinned, the recovery overhead is an
// exact virtual-clock quantity.
func faultCfg() core.Config {
	meta, _ := dataset.ByName("Chickenpox-Hungary")
	return core.Config{
		Meta: meta, Scale: 0.4,
		Model: core.ModelPGTDCRNN, Strategy: core.DistIndex, Hidden: 8, K: 1,
		Config: shard.Config{
			Replicas: 2, Shards: 2,
			BatchSize: 4, Epochs: 2, Seed: 3,
			AssembleCost: func(items int) time.Duration {
				return time.Duration(items) * 25 * time.Microsecond
			},
			ComputeCost: func(int) time.Duration { return 2 * time.Millisecond },
		},
	}
}

// faultRecoveryRow crashes one rank mid-epoch and prices the full recovery
// path — detection, snapshot rollback, grid re-plan, state re-fill and the
// slower surviving grid — against the fault-free run.
func faultRecoveryRow(t *testing.T) map[string]float64 {
	clean, err := core.Run(faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg()
	cfg.Faults = fault.New(11, fault.Crash(3, 8*time.Millisecond))
	rep, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rep.Recoveries)
	}
	return map[string]float64{
		"virt-ns":     float64(rep.VirtualTime),
		"recovery-ns": float64(rep.RecoveryTime),
		"overhead-ns": float64(rep.VirtualTime - clean.VirtualTime),
	}
}
