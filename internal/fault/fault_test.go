package fault

import (
	"math"
	"reflect"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestNewCanonicalizesSchedule(t *testing.T) {
	p := New(1,
		Crash(3, 20*ms),
		Crash(1, 5*ms),
		Crash(2, 20*ms),
		Degrade(2, 30*ms, 40*ms),
		Degrade(3, 10*ms, 50*ms),
		Slow(1, 2, 10*ms, 20*ms),
		Slow(0, 2, 10*ms, 20*ms),
	)
	wantCrashes := []WorkerCrash{{Rank: 1, At: 5 * ms}, {Rank: 2, At: 20 * ms}, {Rank: 3, At: 20 * ms}}
	if !reflect.DeepEqual(p.Crashes, wantCrashes) {
		t.Fatalf("crashes = %v, want %v", p.Crashes, wantCrashes)
	}
	if p.Degrades[0].From != 10*ms {
		t.Fatalf("degrades not sorted by From: %v", p.Degrades)
	}
	if p.Stragglers[0].Rank != 0 {
		t.Fatalf("equal-window stragglers not sorted by rank: %v", p.Stragglers)
	}
	if p.Detection != DefaultDetection || p.Horizon != DefaultHorizon {
		t.Fatalf("defaults not applied: detection %v horizon %v", p.Detection, p.Horizon)
	}
}

func TestRandomOptionsAreSeedDeterministic(t *testing.T) {
	build := func(seed uint64) *Plan {
		return New(seed,
			Horizon(100*ms),
			RandomCrashes(2, 8),
			RandomStragglers(2, 8, 3, 10*ms))
	}
	a, b := build(7), build(7)
	a.rng, b.rng = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	c := build(8)
	c.rng = nil
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	ranks := map[int]bool{}
	for _, cr := range a.Crashes {
		if cr.Rank < 0 || cr.Rank >= 8 {
			t.Fatalf("random crash rank %d outside world", cr.Rank)
		}
		if cr.At < 0 || cr.At >= 100*ms {
			t.Fatalf("random crash time %v outside horizon", cr.At)
		}
		if ranks[cr.Rank] {
			t.Fatalf("random crashes repeat rank %d", cr.Rank)
		}
		ranks[cr.Rank] = true
	}
}

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan should be empty")
	}
	if !New(1).Empty() {
		t.Fatal("optionless plan should be empty")
	}
	if New(1, Crash(0, ms)).Empty() {
		t.Fatal("plan with a crash should not be empty")
	}
	if New(1, Degrade(2, 0, ms)).Empty() {
		t.Fatal("plan with a degrade window should not be empty")
	}
}

func TestValidate(t *testing.T) {
	var nilPlan *Plan
	if err := nilPlan.Validate(4); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	good := New(1, Crash(1, 5*ms), Slow(0, 2, 0, 10*ms), Degrade(1.5, 0, 10*ms))
	if err := good.Validate(4); err != nil {
		t.Fatalf("good plan: %v", err)
	}
	bad := []*Plan{
		New(1, Crash(4, ms)),                 // rank outside world
		New(1, Crash(-1, ms)),                // negative rank
		New(1, Crash(0, -ms)),                // negative time
		New(1, Crash(0, ms), Crash(0, 2*ms)), // same rank twice
		New(1, Crash(0, ms), Crash(1, ms), Crash(2, ms), Crash(3, ms)), // no survivor
		New(1, Degrade(0.5, 0, ms)),                                    // factor below 1
		New(1, Degrade(math.NaN(), 0, ms)),                             // NaN factor
		New(1, Degrade(math.Inf(1), 0, ms)),                            // infinite factor
		New(1, Degrade(2, 5*ms, 5*ms)),                                 // empty window
		New(1, Slow(4, 2, 0, ms)),                                      // straggler rank outside world
		New(1, Slow(0, 0.5, 0, ms)),                                    // straggler factor below 1
		New(1, Slow(0, math.NaN(), 0, ms)),                             // NaN straggler factor
		New(1, Slow(0, math.Inf(1), 0, ms)),                            // infinite straggler factor
		New(1, Slow(0, 2, 5*ms, 2*ms)),                                 // inverted window
		New(1, Detection(0)),                                           // non-positive detection
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
	}
	if err := good.Validate(0); err == nil {
		t.Error("world 0 validated")
	}
}

func TestNextCrash(t *testing.T) {
	var nilPlan *Plan
	if _, ok := nilPlan.NextCrash(); ok {
		t.Fatal("nil plan reported a crash")
	}
	if _, ok := New(1).NextCrash(); ok {
		t.Fatal("empty plan reported a crash")
	}
	p := New(1, Crash(2, 20*ms), Crash(1, 5*ms))
	c, ok := p.NextCrash()
	if !ok || c.Rank != 1 || c.At != 5*ms {
		t.Fatalf("NextCrash = %+v, %v; want rank 1 at 5ms", c, ok)
	}
}

func TestDegradeFactorTakesMaxOfActiveWindows(t *testing.T) {
	var nilPlan *Plan
	if f := nilPlan.DegradeFactor(0); f != 1 {
		t.Fatalf("nil plan factor %v", f)
	}
	p := New(1, Degrade(2, 0, 20*ms), Degrade(3, 10*ms, 30*ms))
	cases := []struct {
		vt   time.Duration
		want float64
	}{
		{0, 2}, {10 * ms, 3}, {15 * ms, 3}, {20 * ms, 3}, {30 * ms, 1},
	}
	for _, c := range cases {
		if f := p.DegradeFactor(c.vt); f != c.want {
			t.Errorf("DegradeFactor(%v) = %v, want %v", c.vt, f, c.want)
		}
	}
}

func TestStragglerFactorIsPerRank(t *testing.T) {
	var nilPlan *Plan
	if f := nilPlan.StragglerFactor(0, 0); f != 1 {
		t.Fatalf("nil plan factor %v", f)
	}
	p := New(1, Slow(1, 2, 0, 20*ms), Slow(1, 4, 10*ms, 15*ms))
	if f := p.StragglerFactor(0, 5*ms); f != 1 {
		t.Errorf("other rank scaled: %v", f)
	}
	if f := p.StragglerFactor(1, 5*ms); f != 2 {
		t.Errorf("single window factor %v, want 2", f)
	}
	if f := p.StragglerFactor(1, 12*ms); f != 4 {
		t.Errorf("overlap should take max: %v, want 4", f)
	}
	if f := p.StragglerFactor(1, 20*ms); f != 1 {
		t.Errorf("window end is exclusive: %v", f)
	}
}

func TestShiftRebasesAndDropsPastWindows(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Shift(ms) != nil {
		t.Fatal("nil plan shift should stay nil")
	}
	p := New(9, Detection(50*ms),
		Crash(0, 5*ms), Crash(1, 30*ms),
		Degrade(2, 0, 8*ms), Degrade(3, 5*ms, 25*ms),
		Slow(2, 2, 0, 10*ms), Slow(3, 2, 15*ms, 40*ms))
	q := p.Shift(10 * ms)
	if q.Seed != 9 || q.Detection != 50*ms {
		t.Fatalf("seed/detection not carried: %+v", q)
	}
	wantCrashes := []WorkerCrash{{Rank: 0, At: 0}, {Rank: 1, At: 20 * ms}}
	if !reflect.DeepEqual(q.Crashes, wantCrashes) {
		t.Fatalf("shifted crashes = %v, want %v", q.Crashes, wantCrashes)
	}
	if len(q.Degrades) != 1 || q.Degrades[0].From != 0 || q.Degrades[0].To != 15*ms {
		t.Fatalf("past degrade window not dropped or live one misclamped: %v", q.Degrades)
	}
	if len(q.Stragglers) != 1 || q.Stragglers[0].Rank != 3 || q.Stragglers[0].From != 5*ms {
		t.Fatalf("shifted stragglers = %v", q.Stragglers)
	}
	if len(p.Crashes) != 2 || p.Crashes[0].At != 5*ms {
		t.Fatal("Shift mutated the receiver")
	}
}

func TestRemapRenumbersAndDropsAbsentRanks(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Remap(map[int]int{0: 0}) != nil {
		t.Fatal("nil plan remap should stay nil")
	}
	p := New(9,
		Crash(1, 5*ms), Crash(3, 30*ms),
		Degrade(2, 0, 10*ms),
		Slow(1, 2, 0, 10*ms), Slow(2, 3, 0, 10*ms))
	// Rank 1 died: survivors 0,2,3 renumber to 0,1,2.
	q := p.Remap(map[int]int{0: 0, 2: 1, 3: 2})
	if len(q.Crashes) != 1 || q.Crashes[0].Rank != 2 || q.Crashes[0].At != 30*ms {
		t.Fatalf("remapped crashes = %v", q.Crashes)
	}
	if len(q.Degrades) != 1 {
		t.Fatalf("rank-agnostic degrade dropped: %v", q.Degrades)
	}
	if len(q.Stragglers) != 1 || q.Stragglers[0].Rank != 1 || q.Stragglers[0].Factor != 3 {
		t.Fatalf("remapped stragglers = %v", q.Stragglers)
	}
	if len(p.Crashes) != 2 || p.Crashes[0].Rank != 1 {
		t.Fatal("Remap mutated the receiver")
	}
}
