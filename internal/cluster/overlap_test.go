package cluster

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// Empty timeline: the step is pure compute, every channel idle.
func TestOverlapFinishChannelsEmptyTimeline(t *testing.T) {
	if got := OverlapFinishChannels(7*ms, nil); got != 7*ms {
		t.Fatalf("empty timeline: step = %v, want compute 7ms", got)
	}
	if got := OverlapFinishChannels(7*ms, []CommEvent{}); got != 7*ms {
		t.Fatalf("empty slice: step = %v, want compute 7ms", got)
	}
	spans, step := OverlapScheduleChannels(7*ms, nil)
	if len(spans) != 0 || step != 7*ms {
		t.Fatalf("empty schedule: %d spans, step %v; want 0 spans, 7ms", len(spans), step)
	}
	exp := OverlapChannelExposure(7*ms, nil)
	if exp[ChannelInter] != 0 || exp[ChannelIntra] != 0 {
		t.Fatalf("empty timeline exposed %v, want zero on both channels", exp)
	}
}

// A single event per channel: each channel serializes independently, the
// step ends at the latest finish, and exposure is per-channel.
func TestOverlapFinishChannelsSingleEventPerChannel(t *testing.T) {
	events := []CommEvent{
		{ReadyAt: 2 * ms, Cost: 10 * ms, Channel: ChannelInter},
		{ReadyAt: 1 * ms, Cost: 3 * ms, Channel: ChannelIntra},
	}
	step := OverlapFinishChannels(5*ms, events)
	if step != 12*ms {
		t.Fatalf("step = %v, want 12ms (inter finishes 2+10)", step)
	}
	spans, schedStep := OverlapScheduleChannels(5*ms, events)
	if schedStep != step {
		t.Fatalf("schedule step %v != finish %v", schedStep, step)
	}
	want := []CommSpan{
		{Event: events[0], Start: 2 * ms, Finish: 12 * ms},
		{Event: events[1], Start: 1 * ms, Finish: 4 * ms},
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	exp := OverlapChannelExposure(5*ms, events)
	if exp[ChannelInter] != 7*ms || exp[ChannelIntra] != 0 {
		t.Fatalf("exposure = %v, want inter 7ms, intra 0", exp)
	}
}

// Identical launch offsets across channels: slice order is the tiebreak and
// must stay deterministic — the trace exporter's span order depends on it.
func TestOverlapFinishChannelsIdenticalReadyAtAcrossChannels(t *testing.T) {
	events := []CommEvent{
		{ReadyAt: 3 * ms, Cost: 4 * ms, Channel: ChannelIntra},
		{ReadyAt: 3 * ms, Cost: 2 * ms, Channel: ChannelInter},
		{ReadyAt: 3 * ms, Cost: 1 * ms, Channel: ChannelIntra},
		{ReadyAt: 3 * ms, Cost: 5 * ms, Channel: ChannelInter},
	}
	// Intra: [3,7) then [7,8). Inter: [3,5) then [5,10). Step = max(6, 10).
	step := OverlapFinishChannels(6*ms, events)
	if step != 10*ms {
		t.Fatalf("step = %v, want 10ms", step)
	}
	spans, schedStep := OverlapScheduleChannels(6*ms, events)
	if schedStep != step {
		t.Fatalf("schedule step %v != finish %v", schedStep, step)
	}
	wantStarts := []time.Duration{3 * ms, 3 * ms, 7 * ms, 5 * ms}
	wantFinish := []time.Duration{7 * ms, 5 * ms, 8 * ms, 10 * ms}
	for i := range events {
		if spans[i].Start != wantStarts[i] || spans[i].Finish != wantFinish[i] {
			t.Fatalf("span %d = [%v, %v), want [%v, %v)", i, spans[i].Start, spans[i].Finish, wantStarts[i], wantFinish[i])
		}
	}
	// Re-running must reproduce the identical schedule (pure function of
	// slice order).
	again, _ := OverlapScheduleChannels(6*ms, events)
	for i := range spans {
		if spans[i] != again[i] {
			t.Fatalf("schedule not deterministic at %d: %+v vs %+v", i, spans[i], again[i])
		}
	}
	exp := OverlapChannelExposure(6*ms, events)
	if exp[ChannelIntra] != 2*ms || exp[ChannelInter] != 4*ms {
		t.Fatalf("exposure = %v, want intra 2ms, inter 4ms", exp)
	}
}

// Out-of-range channels coerce onto the fabric in both the finish and the
// schedule paths, and with every event on one channel the multi-channel
// arithmetic degenerates to OverlapFinish.
func TestOverlapScheduleChannelsAgreesWithFinish(t *testing.T) {
	cases := [][]CommEvent{
		nil,
		{{ReadyAt: 1 * ms, Cost: 9 * ms, Channel: Channel(99)}},
		{{ReadyAt: 0, Cost: 2 * ms}, {ReadyAt: 0, Cost: 2 * ms}, {ReadyAt: 8 * ms, Cost: 1 * ms}},
		{
			{ReadyAt: 1 * ms, Cost: 2 * ms, Channel: ChannelIntra},
			{ReadyAt: 1 * ms, Cost: 6 * ms, Channel: Channel(-3)},
			{ReadyAt: 2 * ms, Cost: 2 * ms, Channel: ChannelIntra},
			{ReadyAt: 2 * ms, Cost: 3 * ms, Channel: ChannelInter},
		},
	}
	for ci, events := range cases {
		for _, compute := range []time.Duration{0, 3 * ms, 20 * ms} {
			spans, step := OverlapScheduleChannels(compute, events)
			if want := OverlapFinishChannels(compute, events); step != want {
				t.Fatalf("case %d compute %v: schedule step %v != OverlapFinishChannels %v", ci, compute, step, want)
			}
			last := compute
			for _, sp := range spans {
				if sp.Finish > last {
					last = sp.Finish
				}
			}
			if last != OverlapFinishChannels(compute, events) {
				t.Fatalf("case %d: max span finish %v disagrees with step", ci, last)
			}
			// Total exposure is the max channel tail.
			exp := OverlapChannelExposure(compute, events)
			maxTail := time.Duration(0)
			for _, e := range exp {
				if e > maxTail {
					maxTail = e
				}
			}
			if got := OverlapFinishChannels(compute, events) - compute; got > 0 && got != maxTail {
				t.Fatalf("case %d: exposed %v != max channel tail %v", ci, got, maxTail)
			}
		}
	}
	// Single-channel degeneration: every event on the fabric reproduces
	// OverlapFinish exactly.
	single := []CommEvent{{ReadyAt: 1 * ms, Cost: 4 * ms}, {ReadyAt: 2 * ms, Cost: 1 * ms}}
	if OverlapFinishChannels(3*ms, single) != OverlapFinish(3*ms, single) {
		t.Fatalf("single-channel timeline diverged from OverlapFinish")
	}
}

// FuzzOverlap checks Overlap's contract on random timelines: the step is
// max(compute, every span's finish); each channel's exposure is how far its
// last finish runs past compute; spans on one channel are ordered, disjoint
// and start as soon as both the engine and the event are ready; channels out
// of range ride the fabric; and passing spans never changes the charge.
// Each event is four bytes: ReadyAt and Cost in units of 10µs (one byte
// each, so collisions and idle gaps are common) and a channel in [-2, 3].
func FuzzOverlap(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(500), []byte{1, 9, 0, 0, 2, 5, 1, 0, 2, 5, 3, 0})
	f.Add(uint16(30), []byte{0, 200, 255, 0, 0, 1, 2, 7, 40, 40, 0, 0})
	f.Fuzz(func(t *testing.T, computeUnits uint16, data []byte) {
		const unit = 10 * time.Microsecond
		compute := time.Duration(computeUnits) * unit
		var events []CommEvent
		for ; len(data) >= 4; data = data[4:] {
			events = append(events, CommEvent{
				ReadyAt: time.Duration(data[0]) * unit,
				Cost:    time.Duration(data[1]) * unit,
				Channel: Channel(int(data[2])%6 - 2),
			})
		}
		spans := make([]CommSpan, len(events))
		step, exposure := Overlap(compute, events, spans)
		if s, e := Overlap(compute, events, nil); s != step || e != exposure {
			t.Fatalf("spans changed the charge: %v %v vs %v %v", s, e, step, exposure)
		}
		wantStep := compute
		var last [NumChannels]time.Duration // each channel's last finish so far
		for i, sp := range spans {
			e := events[i]
			c := e.Channel
			if c != ChannelIntra {
				c = ChannelInter // the fabric, and every out-of-range channel
			}
			if sp.Event != e {
				t.Fatalf("span %d carries %+v, want %+v", i, sp.Event, e)
			}
			if sp.Start != max(last[c], e.ReadyAt) || sp.Finish != sp.Start+e.Cost {
				t.Fatalf("span %d on channel %d = [%v, %v), engine free at %v, event %+v", i, c, sp.Start, sp.Finish, last[c], e)
			}
			last[c] = sp.Finish
			wantStep = max(wantStep, sp.Finish)
		}
		if step != wantStep {
			t.Fatalf("step %v, want max(compute, finishes) %v", step, wantStep)
		}
		for c := range exposure {
			if want := max(0, last[c]-compute); exposure[c] != want {
				t.Fatalf("channel %d exposure %v, want %v", c, exposure[c], want)
			}
		}
	})
}
