package nn

import (
	"fmt"
	"io"
	"math"

	"pgti/internal/atomicfile"
	"pgti/internal/autograd"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// ForwardWithTeacher runs the decoder with scheduled sampling (the original
// DCRNN's curriculum learning): at each decode step the previous *ground
// truth* is fed with probability teacherProb, the model's own prediction
// otherwise. target has shape [B, Horizon, N, 1].
func (m *DCRNN) ForwardWithTeacher(x *autograd.Variable, target *tensor.Tensor, teacherProb float64, rng *tensor.RNG) *autograd.Variable {
	return m.forward(x, target, teacherProb, rng)
}

// ParametersEqual reports whether two modules hold identical parameter
// values (used by DDP consistency tests).
func ParametersEqual(a, b Module, tol float64) bool {
	ap, bp := a.Parameters(), b.Parameters()
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if !ap[i].Tensor().AllClose(bp[i].Tensor(), tol) {
			return false
		}
	}
	return true
}

// Optimizer updates module parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and clears the gradients.
	Step()
	// LearningRate returns the current learning rate.
	LearningRate() float64
	// SetLearningRate replaces the learning rate (used by LR scaling).
	SetLearningRate(lr float64)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	params   []*Parameter
	lr       float64
	momentum float64
	velocity []*tensor.Tensor
}

// NewSGD constructs an SGD optimizer over the module's parameters.
func NewSGD(m Module, lr, momentum float64) *SGD {
	params := m.Parameters()
	s := &SGD{params: params, lr: lr, momentum: momentum}
	if momentum != 0 {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.Tensor().Shape()...)
		}
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for i, p := range s.params {
		if p.V.Grad == nil {
			continue
		}
		g := p.V.Grad
		if s.momentum != 0 {
			v := s.velocity[i]
			v.ScaleInPlace(s.momentum)
			tensor.Axpy(1, g.Contiguous().Data(), v.Data())
			g = v
		}
		tensor.Axpy(-s.lr, g.Contiguous().Data(), p.Tensor().Data())
		p.V.ZeroGrad()
	}
}

// LearningRate implements Optimizer.
func (a *Adam) LearningRate() float64 { return a.lr }

// SetLearningRate implements Optimizer.
func (a *Adam) SetLearningRate(lr float64) { a.lr = lr }

// SqrtScaleLR is the gentler sqrt scaling variant (You et al.).
func SqrtScaleLR(base float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return base * math.Sqrt(float64(workers))
}

// LRSchedule adjusts an optimizer's learning rate across epochs. The
// reference DCRNN trains with a multi-step decay; cosine is provided as the
// common modern alternative.
type LRSchedule interface {
	// LR returns the learning rate for the given 0-based epoch.
	LR(epoch int) float64
}

// ConstantLR holds the rate fixed.
type ConstantLR float64

// LR implements LRSchedule.
func (c ConstantLR) LR(int) float64 { return float64(c) }

// MultiStepLR decays the base rate by Gamma at each milestone epoch —
// DCRNN's schedule (milestones {20, 30, 40, 50}, gamma 0.1 in the
// reference implementation).
type MultiStepLR struct {
	Base       float64
	Milestones []int
	Gamma      float64
}

// LR implements LRSchedule.
func (m MultiStepLR) LR(epoch int) float64 {
	lr := m.Base
	gamma := m.Gamma
	if gamma <= 0 {
		gamma = 0.1
	}
	for _, ms := range m.Milestones {
		if epoch >= ms {
			lr *= gamma
		}
	}
	return lr
}

// CosineLR anneals from Base to Floor over Epochs.
type CosineLR struct {
	Base   float64
	Floor  float64
	Epochs int
}

// LR implements LRSchedule.
func (c CosineLR) LR(epoch int) float64 {
	if c.Epochs <= 1 {
		return c.Base
	}
	t := float64(epoch) / float64(c.Epochs-1)
	if t > 1 {
		t = 1
	}
	return c.Floor + 0.5*(c.Base-c.Floor)*(1+math.Cos(math.Pi*t))
}

// ApplySchedule sets the optimizer's rate for the epoch and returns it.
func ApplySchedule(opt Optimizer, s LRSchedule, epoch int) float64 {
	lr := s.LR(epoch)
	opt.SetLearningRate(lr)
	return lr
}

// EarlyStopper implements patience-based early stopping on a monitored
// metric (lower is better), the standard guard for the paper's 100-epoch
// runs.
type EarlyStopper struct {
	Patience int
	MinDelta float64

	best    float64
	bad     int
	started bool
}

// NewEarlyStopper returns a stopper that gives up after `patience` epochs
// without an improvement of at least minDelta.
func NewEarlyStopper(patience int, minDelta float64) *EarlyStopper {
	return &EarlyStopper{Patience: patience, MinDelta: minDelta}
}

// Observe records an epoch's metric and reports whether training should
// stop.
func (e *EarlyStopper) Observe(value float64) bool {
	if !e.started || value < e.best-e.MinDelta {
		e.best = value
		e.bad = 0
		e.started = true
		return false
	}
	e.bad++
	return e.bad >= e.Patience
}

// Best returns the best metric seen so far (+Inf before any observation).
func (e *EarlyStopper) Best() float64 {
	if !e.started {
		return math.Inf(1)
	}
	return e.best
}

// ScheduledSampler implements inverse-sigmoid scheduled sampling
// (curriculum learning), the original DCRNN's decoder training trick: early
// in training the decoder is fed ground truth with high probability, and
// the probability decays toward 0 so the model learns to consume its own
// predictions.
type ScheduledSampler struct {
	// Tau controls the decay: p(step) = Tau / (Tau + exp(step/Tau)).
	Tau float64
	// step counts global optimizer steps.
	step int
}

// NewScheduledSampler returns a sampler with decay constant tau
// (the reference uses 3000).
func NewScheduledSampler(tau float64) *ScheduledSampler {
	if tau <= 0 {
		tau = 3000
	}
	return &ScheduledSampler{Tau: tau}
}

// TeacherForcingProb returns the current probability of feeding ground
// truth to the decoder.
func (s *ScheduledSampler) TeacherForcingProb() float64 {
	return s.Tau / (s.Tau + math.Exp(float64(s.step)/s.Tau))
}

// Step advances the global step counter.
func (s *ScheduledSampler) Step() { s.step++ }

// SaveCheckpointFile writes a checkpoint to path, atomically: an interrupted
// save leaves the previous checkpoint intact.
func SaveCheckpointFile(path string, m Module) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		return SaveCheckpoint(w, m)
	})
}

// StepOn advances the recurrence using the given support matrices — the
// dynamic-graph path, where the sensor topology at this time step may
// differ from the construction-time graph. The learned weights are shared.
func (c *DCGRUCell) StepOn(supports []*sparse.CSR, x, h *autograd.Variable) *autograd.Variable {
	on := *c
	on.gates, on.candidate = c.gates.on(supports), c.candidate.on(supports)
	return on.Step(x, h)
}

// ForwardOn applies the layer's weights with the given support matrices —
// the dynamic-graph path (the paper's §7 extension: topology that evolves
// over time while the learned diffusion filters are shared). The support
// count must match the layer's construction.
func (dc *DiffusionConv) ForwardOn(supports []*sparse.CSR, x *autograd.Variable) *autograd.Variable {
	return dc.on(supports).Forward(x)
}

// on returns the layer over other supports, sharing its weights.
func (dc *DiffusionConv) on(supports []*sparse.CSR) *DiffusionConv {
	if len(supports) != len(dc.props) {
		panic(fmt.Sprintf("nn: DiffusionConv built for %d supports, got %d", len(dc.props), len(supports)))
	}
	on := *dc
	on.props = WrapSupports(supports)
	return &on
}

// ForwardDynamic runs the recurrence with per-step support matrices —
// a dynamic graph with temporal signal, the extension the paper lists as
// future work (§7). supportsPerStep[t] supplies the topology at window
// step t; a nil slice (or nil entry) falls back to the static graph.
func (m *PGTDCRNN) ForwardDynamic(x *autograd.Variable, supportsPerStep [][]*sparse.CSR) *autograd.Variable {
	shape := x.Shape()
	if len(shape) != 4 || shape[3] != m.In {
		panic(fmt.Sprintf("nn: PGTDCRNN expects [B,T,N,%d], got %v", m.In, shape))
	}
	b, steps, n := shape[0], shape[1], shape[2]
	if supportsPerStep != nil && len(supportsPerStep) != steps {
		panic(fmt.Sprintf("nn: ForwardDynamic got %d support sets for %d steps", len(supportsPerStep), steps))
	}
	h := m.cell.InitState(b, n)
	outputs := make([]*autograd.Variable, 0, steps)
	for t := 0; t < steps; t++ {
		if supportsPerStep != nil && supportsPerStep[t] != nil {
			h = m.cell.StepOn(supportsPerStep[t], stepInput(x, t), h)
		} else {
			h = m.cell.Step(stepInput(x, t), h)
		}
		outputs = append(outputs, m.proj.Forward(h))
	}
	return autograd.Stack(1, outputs...) // [B, T, N, 1]
}
