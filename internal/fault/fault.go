// Package fault models deterministic infrastructure faults for the virtual
// cluster: worker crashes, degraded links, and stragglers, scheduled on the
// modeled clock. A Plan is a pure function of its seed and options — the same
// seed always produces the same schedule — so every worker in a grid can hold
// an identical copy and agree, without any out-of-band channel, on exactly
// which fault fires when. Nothing here touches wall time: faults are points
// and windows in virtual time, and the cluster layer charges their effects
// (detection timeouts, inflated transfer and compute costs) to the same
// clocks everything else in this repo is priced on.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// WorkerCrash removes a rank from the grid: once any surviving worker's
// virtual clock reaches At, the loss is detected (after the plan's modeled
// detection timeout) and surfaced as a *cluster.WorkerLostError. Ranks are
// numbered in the grid the plan is armed on; after an elastic recovery the
// engine remaps the remaining schedule onto the survivor grid.
type WorkerCrash struct {
	Rank int
	At   time.Duration
}

// LinkDegrade inflates every modeled transfer cost by Factor for virtual
// times in [From, To). Factor 1 is a no-op; factors below 1 are invalid (a
// degraded link never gets faster).
type LinkDegrade struct {
	Factor   float64
	From, To time.Duration
}

// Straggler inflates one rank's modeled compute charges by Factor for
// virtual times in [From, To). Like LinkDegrade, Factor must be >= 1.
type Straggler struct {
	Rank     int
	Factor   float64
	From, To time.Duration
}

// DefaultDetection is the modeled failure-detection timeout charged to every
// surviving clock when a crash is detected, unless the plan overrides it.
const DefaultDetection = 250 * time.Millisecond

// DefaultHorizon bounds the virtual-time range the seeded random generators
// draw fault times from.
const DefaultHorizon = time.Second

// Plan is a deterministic fault schedule. Construct it with New; the zero
// value is an empty plan that injects nothing. An armed-but-empty plan is
// contractually indistinguishable from no plan at all (bitwise identical
// curves and clocks) — the cluster layer guards every scaling site on the
// no-fault fast path.
type Plan struct {
	// Seed identifies the schedule; it drives the RNG behind the Random*
	// options and is carried through Shift/Remap so recovery events can
	// name the plan they came from.
	Seed uint64
	// Detection is the modeled failure-detection timeout.
	Detection time.Duration
	// Horizon bounds randomly drawn fault times.
	Horizon time.Duration

	Crashes    []WorkerCrash
	Degrades   []LinkDegrade
	Stragglers []Straggler

	rng *rand.Rand
}

// Option mutates a Plan under construction.
type Option func(*Plan)

// Crash schedules a deterministic worker crash.
func Crash(rank int, at time.Duration) Option {
	return func(p *Plan) {
		p.Crashes = append(p.Crashes, WorkerCrash{Rank: rank, At: at})
	}
}

// Degrade schedules a link-degradation window scaling transfer costs.
func Degrade(factor float64, from, to time.Duration) Option {
	return func(p *Plan) {
		p.Degrades = append(p.Degrades, LinkDegrade{Factor: factor, From: from, To: to})
	}
}

// Slow schedules a straggler window scaling one rank's compute charges.
func Slow(rank int, factor float64, from, to time.Duration) Option {
	return func(p *Plan) {
		p.Stragglers = append(p.Stragglers, Straggler{Rank: rank, Factor: factor, From: from, To: to})
	}
}

// Detection overrides the modeled failure-detection timeout.
func Detection(d time.Duration) Option {
	return func(p *Plan) { p.Detection = d }
}

// Horizon overrides the virtual-time range random faults are drawn from.
// It must precede the Random* options it should govern.
func Horizon(d time.Duration) Option {
	return func(p *Plan) { p.Horizon = d }
}

// RandomCrashes draws n crashes with distinct ranks in [0, world) and times
// in [0, Horizon) from the plan's seeded RNG.
func RandomCrashes(n, world int) Option {
	return func(p *Plan) {
		perm := p.rng.Perm(world)
		for i := 0; i < n && i < world; i++ {
			at := time.Duration(p.rng.Int63n(int64(p.Horizon)))
			p.Crashes = append(p.Crashes, WorkerCrash{Rank: perm[i], At: at})
		}
	}
}

// RandomStragglers draws n straggler windows of the given factor and
// duration, with ranks in [0, world) and starts in [0, Horizon), from the
// plan's seeded RNG.
func RandomStragglers(n, world int, factor float64, dur time.Duration) Option {
	return func(p *Plan) {
		for i := 0; i < n; i++ {
			rank := p.rng.Intn(world)
			from := time.Duration(p.rng.Int63n(int64(p.Horizon)))
			p.Stragglers = append(p.Stragglers, Straggler{Rank: rank, Factor: factor, From: from, To: from + dur})
		}
	}
}

// New builds a Plan from the seed and options. Options apply in order and
// the schedule is then canonicalized (crashes sorted by (At, Rank), windows
// by (From, To, Rank)), so the result is a pure function of the arguments.
func New(seed uint64, opts ...Option) *Plan {
	p := &Plan{
		Seed:      seed,
		Detection: DefaultDetection,
		Horizon:   DefaultHorizon,
		rng:       rand.New(rand.NewSource(int64(seed))),
	}
	for _, opt := range opts {
		opt(p)
	}
	p.normalize()
	return p
}

// normalize puts the schedule in canonical order so plans built from the
// same faults compare and replay identically.
func (p *Plan) normalize() {
	sort.Slice(p.Crashes, func(i, j int) bool {
		a, b := p.Crashes[i], p.Crashes[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Rank < b.Rank
	})
	sort.Slice(p.Degrades, func(i, j int) bool {
		a, b := p.Degrades[i], p.Degrades[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	sort.Slice(p.Stragglers, func(i, j int) bool {
		a, b := p.Stragglers[i], p.Stragglers[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Rank < b.Rank
	})
}

// Empty reports whether the plan schedules no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Degrades) == 0 && len(p.Stragglers) == 0)
}

// Validate checks the schedule against a grid of `world` ranks: every rank
// in range, at most one crash per rank, at least one survivor, factors >= 1,
// and well-ordered windows. A nil plan is valid.
func (p *Plan) Validate(world int) error {
	if p == nil {
		return nil
	}
	if world < 1 {
		return fmt.Errorf("fault: world size %d", world)
	}
	if p.Detection <= 0 {
		return fmt.Errorf("fault: detection timeout %v must be positive", p.Detection)
	}
	seen := make(map[int]bool, len(p.Crashes))
	for _, c := range p.Crashes {
		if c.Rank < 0 || c.Rank >= world {
			return fmt.Errorf("fault: crash rank %d outside world %d", c.Rank, world)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash at negative time %v", c.At)
		}
		if seen[c.Rank] {
			return fmt.Errorf("fault: rank %d crashes twice", c.Rank)
		}
		seen[c.Rank] = true
	}
	if len(p.Crashes) >= world {
		return fmt.Errorf("fault: %d crashes leave no survivor in world %d", len(p.Crashes), world)
	}
	for _, d := range p.Degrades {
		if !validFactor(d.Factor) {
			return fmt.Errorf("fault: degrade factor %v is not a finite factor >= 1", d.Factor)
		}
		if d.From < 0 || d.To <= d.From {
			return fmt.Errorf("fault: degrade window [%v, %v) is empty or negative", d.From, d.To)
		}
	}
	for _, s := range p.Stragglers {
		if s.Rank < 0 || s.Rank >= world {
			return fmt.Errorf("fault: straggler rank %d outside world %d", s.Rank, world)
		}
		if !validFactor(s.Factor) {
			return fmt.Errorf("fault: straggler factor %v is not a finite factor >= 1", s.Factor)
		}
		if s.From < 0 || s.To <= s.From {
			return fmt.Errorf("fault: straggler window [%v, %v) is empty or negative", s.From, s.To)
		}
	}
	return nil
}

// validFactor reports whether f is a finite slowdown factor >= 1 (NaN and
// +Inf fail: NaN < 1 is false, and an infinite factor overflows a duration).
func validFactor(f float64) bool { return f >= 1 && !math.IsInf(f, 1) }

// NextCrash returns the earliest scheduled crash by (At, Rank) order.
func (p *Plan) NextCrash() (WorkerCrash, bool) {
	if p == nil || len(p.Crashes) == 0 {
		return WorkerCrash{}, false
	}
	return p.Crashes[0], true
}

// DegradeFactor returns the transfer-cost multiplier at virtual time vt: the
// largest factor among active windows, 1 when none is active.
func (p *Plan) DegradeFactor(vt time.Duration) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, d := range p.Degrades {
		if vt >= d.From && vt < d.To && d.Factor > f {
			f = d.Factor
		}
	}
	return f
}

// StragglerFactor returns rank's compute-cost multiplier at virtual time vt:
// the largest factor among its active windows, 1 when none is active.
func (p *Plan) StragglerFactor(rank int, vt time.Duration) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, s := range p.Stragglers {
		if s.Rank == rank && vt >= s.From && vt < s.To && s.Factor > f {
			f = s.Factor
		}
	}
	return f
}

// Shift rebases the schedule onto a clock that starts `offset` into this
// plan's timeline: times shift down by offset (clamped at zero — a fault
// already due fires immediately), and windows entirely in the past drop out.
// The receiver is untouched.
func (p *Plan) Shift(offset time.Duration) *Plan {
	if p == nil {
		return nil
	}
	q := &Plan{Seed: p.Seed, Detection: p.Detection, Horizon: p.Horizon}
	for _, c := range p.Crashes {
		c.At = clampZero(c.At - offset)
		q.Crashes = append(q.Crashes, c)
	}
	for _, d := range p.Degrades {
		if d.To <= offset {
			continue
		}
		d.From = clampZero(d.From - offset)
		d.To -= offset
		q.Degrades = append(q.Degrades, d)
	}
	for _, s := range p.Stragglers {
		if s.To <= offset {
			continue
		}
		s.From = clampZero(s.From - offset)
		s.To -= offset
		q.Stragglers = append(q.Stragglers, s)
	}
	q.normalize()
	return q
}

// Remap renumbers ranks through the given old→new mapping, dropping faults
// whose rank is absent (a crashed rank's remaining schedule dies with it).
// Rank-agnostic windows (LinkDegrade) survive untouched. The receiver is
// untouched.
func (p *Plan) Remap(ranks map[int]int) *Plan {
	if p == nil {
		return nil
	}
	q := &Plan{Seed: p.Seed, Detection: p.Detection, Horizon: p.Horizon}
	for _, c := range p.Crashes {
		if nr, ok := ranks[c.Rank]; ok {
			c.Rank = nr
			q.Crashes = append(q.Crashes, c)
		}
	}
	q.Degrades = append(q.Degrades, p.Degrades...)
	for _, s := range p.Stragglers {
		if nr, ok := ranks[s.Rank]; ok {
			s.Rank = nr
			q.Stragglers = append(q.Stragglers, s)
		}
	}
	q.normalize()
	return q
}

func clampZero(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}
