package dataset

import (
	"fmt"
	"math"

	"pgti/internal/graph"
	"pgti/internal/tensor"
)

// MaxGenerateElements caps in-memory synthetic generation (entries x nodes).
// Paper-scale datasets (full PeMS is 1.2e9 node-steps) are handled by the
// modeled pipelines, which never materialize them; measured-mode runs use
// Meta.Scaled. The cap is a guard against accidentally materializing tens of
// gigabytes.
const MaxGenerateElements = 200_000_000

// Dataset is a generated spatiotemporal dataset: the raw signal tensor
// [entries, nodes, rawFeatures] and its sensor graph.
type Dataset struct {
	Meta  Meta
	Data  *tensor.Tensor
	Graph *graph.Graph
}

// stepper produces one timestep of the raw signal at a time, carrying the
// generator's AR state between calls. out holds nodes*rawFeatures values
// (the row layout of the materialized tensor).
type stepper interface {
	step(t int, out []float64)
}

// Generator emits a dataset one timestep at a time: the incremental form of
// Generate that the streaming source consumes. Timesteps arrive in order;
// materializing meta.Entries of them reproduces Generate(meta, seed) bitwise,
// because Generate itself is implemented on top of a Generator. The stepper
// keeps running past meta.Entries (the AR processes are unbounded), so a
// stream can outlive the offline dataset's nominal length.
type Generator struct {
	Meta  Meta
	Graph *graph.Graph
	st    stepper
	t     int
}

// NewGenerator validates meta, builds the sensor graph, and seeds the
// domain stepper.
func NewGenerator(meta Meta, seed uint64) (*Generator, error) {
	if meta.Nodes <= 0 || meta.Entries <= 0 {
		return nil, fmt.Errorf("dataset: invalid shape %dx%d for %s", meta.Entries, meta.Nodes, meta.Name)
	}
	g, err := graph.RoadNetwork(seed, meta.Nodes, meta.NeighborsK)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed ^ 0xdecade)
	var st stepper
	switch meta.Domain {
	case Traffic:
		st = newTrafficStepper(rng, g, meta)
	case Energy:
		st = newEnergyStepper(rng, g, meta)
	case Epidemiological:
		st = newEpidemicStepper(rng, g, meta)
	default:
		return nil, fmt.Errorf("dataset: unknown domain %q", meta.Domain)
	}
	return &Generator{Meta: meta, Graph: g, st: st}, nil
}

// RowLen returns the per-timestep value count, nodes*rawFeatures.
func (gen *Generator) RowLen() int { return gen.Meta.Nodes * gen.Meta.RawFeatures }

// Next writes the next timestep into out (length RowLen) and advances the
// generator state.
func (gen *Generator) Next(out []float64) {
	if len(out) != gen.RowLen() {
		panic(fmt.Sprintf("dataset: generator row is %d values, got buffer of %d", gen.RowLen(), len(out)))
	}
	gen.st.step(gen.t, out)
	gen.t++
}

// Generate synthesizes a dataset matching meta's shape, deterministically
// for a given seed. The domain selects the generator:
//
//   - Traffic: per-sensor free-flow speeds with rush-hour congestion that
//     diffuses across the sensor graph (an AR process coupled through the
//     forward transition matrix) — the structure DCRNN is built to exploit.
//   - Energy: regional weather fronts (slow AR) with turbine-local
//     turbulence and a mild diurnal cycle.
//   - Epidemiological: seasonal baseline with multiplicative outbreak waves
//     that spread to graph neighbours.
func Generate(meta Meta, seed uint64) (*Dataset, error) {
	if meta.Nodes > 0 && meta.Entries > 0 && int64(meta.Nodes)*int64(meta.Entries) > MaxGenerateElements {
		return nil, fmt.Errorf("dataset: %s at full scale (%d node-steps) exceeds the generation cap; use Meta.Scaled for measured runs or the modeled pipelines for paper scale",
			meta.Name, int64(meta.Nodes)*int64(meta.Entries))
	}
	gen, err := NewGenerator(meta, seed)
	if err != nil {
		return nil, err
	}
	data := tensor.New(meta.Entries, meta.Nodes, meta.RawFeatures)
	d := data.Data()
	row := gen.RowLen()
	for t := 0; t < meta.Entries; t++ {
		gen.Next(d[t*row : (t+1)*row])
	}
	return &Dataset{Meta: meta, Data: data, Graph: gen.Graph}, nil
}

// trafficStepper synthesizes loop-detector speeds in mph.
type trafficStepper struct {
	rng        *tensor.RNG
	fwd        *graphTransition
	free       []float64 // free-flow speed per sensor
	congestion []float64
	diffused   []float64
	n, rawF    int
	period     int
}

// graphTransition narrows the dependency to the one operation steppers use.
type graphTransition struct {
	mulVec func([]float64) []float64
}

func transitionOf(g *graph.Graph) *graphTransition {
	fwd, _ := g.TransitionMatrices()
	return &graphTransition{mulVec: fwd.MulVec}
}

func newTrafficStepper(rng *tensor.RNG, g *graph.Graph, meta Meta) *trafficStepper {
	n := meta.Nodes
	fwd := transitionOf(g)
	free := make([]float64, n)
	for i := range free {
		free[i] = 55 + 15*rng.Float64()
	}
	period := meta.PeriodSteps
	if period <= 0 {
		period = 288
	}
	return &trafficStepper{
		rng: rng, fwd: fwd, free: free,
		congestion: make([]float64, n), diffused: make([]float64, n),
		n: n, rawF: meta.RawFeatures, period: period,
	}
}

func (ts *trafficStepper) step(t int, out []float64) {
	tod := float64(t%ts.period) / float64(ts.period)
	day := t / ts.period
	weekday := day%7 < 5
	rush := rushIntensity(tod)
	if !weekday {
		rush *= 0.3
	}
	// Congestion diffuses to downstream sensors through the graph.
	copy(ts.diffused, ts.congestion)
	ts.diffused = ts.fwd.mulVec(ts.diffused)
	for i := 0; i < ts.n; i++ {
		ts.congestion[i] = 0.60*ts.congestion[i] + 0.25*ts.diffused[i] + 0.45*rush + 0.08*ts.rng.NormFloat64()
		if ts.congestion[i] < 0 {
			ts.congestion[i] = 0
		}
		if ts.congestion[i] > 1.6 {
			ts.congestion[i] = 1.6
		}
		speed := ts.free[i]*(1-0.45*math.Tanh(ts.congestion[i])) + 1.5*ts.rng.NormFloat64()
		if speed < 3 {
			speed = 3
		}
		out[i*ts.rawF] = speed
	}
}

// rushIntensity is a double-peaked daily congestion profile (morning and
// evening rush hours).
func rushIntensity(tod float64) float64 {
	peak := func(center, width float64) float64 {
		d := tod - center
		return math.Exp(-(d * d) / (2 * width * width))
	}
	return peak(0.33, 0.045) + 0.9*peak(0.73, 0.06)
}

// energyStepper synthesizes normalized turbine output in [0, 1].
type energyStepper struct {
	rng      *tensor.RNG
	fwd      *graphTransition
	regional float64 // slow weather-front process shared via graph diffusion
	local    []float64
	n, rawF  int
	period   int
}

func newEnergyStepper(rng *tensor.RNG, g *graph.Graph, meta Meta) *energyStepper {
	n := meta.Nodes
	fwd := transitionOf(g)
	local := make([]float64, n)
	for i := range local {
		local[i] = rng.Float64() * 0.2
	}
	period := meta.PeriodSteps
	if period <= 0 {
		period = 24
	}
	return &energyStepper{
		rng: rng, fwd: fwd, regional: 0.5, local: local,
		n: n, rawF: meta.RawFeatures, period: period,
	}
}

func (es *energyStepper) step(t int, out []float64) {
	es.regional = 0.995*es.regional + 0.01*es.rng.NormFloat64()
	if es.regional < 0 {
		es.regional = 0
	}
	if es.regional > 1 {
		es.regional = 1
	}
	diurnal := 0.12 * math.Sin(2*math.Pi*float64(t%es.period)/float64(es.period))
	smoothed := es.fwd.mulVec(es.local)
	for i := 0; i < es.n; i++ {
		es.local[i] = 0.85*es.local[i] + 0.1*smoothed[i] + 0.05*es.rng.NormFloat64()
		wind := es.regional + diurnal + es.local[i]
		if wind < 0 {
			wind = 0
		}
		if wind > 1 {
			wind = 1
		}
		// Cubic power curve, softened.
		out[i*es.rawF] = wind * wind * (3 - 2*wind)
	}
}

// epidemicStepper synthesizes weekly case counts.
type epidemicStepper struct {
	rng       *tensor.RNG
	fwd       *graphTransition
	pop       []float64 // county scale factor
	infection []float64
	n, rawF   int
	period    int
}

func newEpidemicStepper(rng *tensor.RNG, g *graph.Graph, meta Meta) *epidemicStepper {
	n := meta.Nodes
	fwd := transitionOf(g)
	pop := make([]float64, n)
	for i := range pop {
		pop[i] = 20 + 80*rng.Float64()
	}
	infection := make([]float64, n)
	for i := range infection {
		infection[i] = 0.5 + 0.2*rng.NormFloat64()
	}
	period := meta.PeriodSteps
	if period <= 0 {
		period = 52
	}
	return &epidemicStepper{
		rng: rng, fwd: fwd, pop: pop, infection: infection,
		n: n, rawF: meta.RawFeatures, period: period,
	}
}

func (ep *epidemicStepper) step(t int, out []float64) {
	season := 1 + 0.6*math.Cos(2*math.Pi*float64(t%ep.period)/float64(ep.period))
	spread := ep.fwd.mulVec(ep.infection)
	for i := 0; i < ep.n; i++ {
		ep.infection[i] = 0.7*ep.infection[i] + 0.2*spread[i] + 0.1*(0.5+0.5*ep.rng.Float64())
		if ep.infection[i] < 0.05 {
			ep.infection[i] = 0.05
		}
		cases := ep.pop[i] * ep.infection[i] * season * (0.9 + 0.2*ep.rng.Float64())
		if cases < 0 {
			cases = 0
		}
		out[i*ep.rawF] = math.Round(cases)
	}
}

// AugmentTimeOfDay implements stage 1 of Fig. 3: append a normalized
// time-of-day feature ((t mod period)/period, identical for every node) to
// a [entries, nodes, F] tensor, returning [entries, nodes, F+1]. This is the
// step that doubles the traffic datasets' footprint before SWA even begins.
func AugmentTimeOfDay(data *tensor.Tensor, periodSteps int) *tensor.Tensor {
	if data.Rank() != 3 {
		panic(fmt.Sprintf("dataset: AugmentTimeOfDay expects rank 3, got %v", data.Shape()))
	}
	if periodSteps <= 0 {
		periodSteps = 288
	}
	e, n, f := data.Dim(0), data.Dim(1), data.Dim(2)
	out := tensor.New(e, n, f+1)
	out.Slice(2, 0, f).CopyFrom(data)
	for t := 0; t < e; t++ {
		tod := float64(t%periodSteps) / float64(periodSteps)
		step := out.Index(0, t) // [n, f+1]
		for i := 0; i < n; i++ {
			step.Set(tod, i, f)
		}
	}
	return out
}

// Augmented returns the model-ready signal: the raw data with the
// time-of-day channel appended when the dataset calls for it.
func (ds *Dataset) Augmented() *tensor.Tensor {
	if !ds.Meta.TimeOfDay {
		return ds.Data
	}
	return AugmentTimeOfDay(ds.Data, ds.Meta.PeriodSteps)
}

// InjectMissing simulates sensor dropouts: each (entry, node) observation
// is zeroed with probability frac (zero is the missing-data sentinel of
// the traffic benchmarks, paired with autograd.MaskedMAELoss). Returns the
// number of zeroed observations. The tensor is modified in place.
func InjectMissing(data *tensor.Tensor, frac float64, seed uint64) int {
	if data.Rank() != 3 {
		panic(fmt.Sprintf("dataset: InjectMissing expects rank 3, got %v", data.Shape()))
	}
	if frac <= 0 {
		return 0
	}
	rng := tensor.NewRNG(seed)
	entries, nodes, feats := data.Dim(0), data.Dim(1), data.Dim(2)
	dropped := 0
	for t := 0; t < entries; t++ {
		for n := 0; n < nodes; n++ {
			if rng.Float64() < frac {
				for f := 0; f < feats; f++ {
					data.Set(0, t, n, f)
				}
				dropped++
			}
		}
	}
	return dropped
}
