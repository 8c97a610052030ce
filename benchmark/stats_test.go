package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCalm(t *testing.T) {
	// Five unit times, two of them disturbed: the faster half is the three
	// quiet ones, and its median ignores the disturbed pair.
	times := []float64{1.0, 1.5, 1.1, 1.6, 1.2}
	if got := fasterHalf(times, false); !slices.Equal(got, []float64{1.0, 1.1, 1.2}) {
		t.Errorf("fasterHalf(times) = %v", got)
	}
	if got := calm(times, false); got != 1.1 {
		t.Errorf("calm(times) = %v, want 1.1", got)
	}
	// For a rate the faster half is the larger values.
	rates := []float64{100, 60, 90, 80}
	if got := fasterHalf(rates, true); !slices.Equal(got, []float64{100, 90}) {
		t.Errorf("fasterHalf(rates) = %v", got)
	}
	if got := calm(rates, true); got != 95 {
		t.Errorf("calm(rates) = %v, want 95", got)
	}
	if got := calm(nil, false); got != 0 {
		t.Errorf("calm(nil) = %v, want 0", got)
	}
}

func TestCalmSamples(t *testing.T) {
	// Three slices and an empty one: the two with the lowest medians are
	// pooled whole, the disturbed one and the empty one are left out.
	got := calmSamples([][]float64{{5, 6, 7}, {1, 2, 9}, nil, {3, 3, 3}})
	slices.Sort(got)
	if want := []float64{1, 2, 3, 3, 3, 9}; !slices.Equal(got, want) {
		t.Errorf("calmSamples = %v, want %v", got, want)
	}
	if got := calmSamples(nil); len(got) != 0 {
		t.Errorf("calmSamples(nil) = %v", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	// 200 samples 1..200: p95 is rank 190, with exactly ten beyond it.
	got, err := percentile(seq(200), 95)
	if err != nil || got != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if got, err := percentile(seq(1000), 99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, err := percentile(seq(40), 50); err != nil || got != 20 {
		t.Errorf("p50 of 1..40 = %v, %v; want 20", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// One sample fewer and only nine lie beyond the rank: refused.
	if got, err := percentile(seq(199), 95); err == nil {
		t.Errorf("p95 of 199 samples = %v, want a refusal", got)
	}
	if _, err := percentile(seq(500), 99); err == nil {
		t.Error("p99 of 500 samples (5 beyond) was not refused")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("percentile %v was not refused", p)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, err := quartiles(seq(10))
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, err)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q3, err = quartiles([]float64{4, 2, 1, 3})
	if err != nil || q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v, %v, %v; want 1.25, 3.75", q1, q3, err)
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value was not refused")
	}
	if s, err := spread(seq(10)); err != nil || s != 1 {
		t.Errorf("spread(1..10) = %v, %v; want (8.25-2.75)/5.5 = 1", s, err)
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, d = 100.0, 20 * time.Second
	a := poissonSchedule(7, rate, d)
	if !slices.Equal(a, poissonSchedule(7, rate, d)) {
		t.Error("the same seed gave two different schedules")
	}
	if slices.Equal(a, poissonSchedule(8, rate, d)) {
		t.Error("two seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= d {
		t.Errorf("schedule is not ascending inside [0, %v)", d)
	}
	// 2000 expected arrivals, standard deviation ~45.
	if n := float64(len(a)); math.Abs(n-rate*d.Seconds()) > 250 {
		t.Errorf("%v arrivals at %v/s over %v", n, rate, d)
	}
	// Exponential gaps: the mean gap is 1/rate and about 1/e of the gaps
	// exceed it; evenly spaced arrivals would have none beyond it.
	long := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > time.Duration(float64(time.Second)/rate) {
			long++
		}
	}
	if share := float64(long) / float64(len(a)-1); math.Abs(share-1/math.E) > 0.05 {
		t.Errorf("%.3f of the gaps exceed the mean gap, want about 1/e", share)
	}
}

func TestVmHWM(t *testing.T) {
	if v, ok := parseVmHWM("VmHWM:\t    1788 kB"); !ok || v != 1788*1024 {
		t.Errorf("parseVmHWM = %v, %v", v, ok)
	}
	for _, line := range []string{"VmRSS:\t    1788 kB", "VmHWM:\t    1788", "VmHWM:\t    x kB"} {
		if v, ok := parseVmHWM(line); ok {
			t.Errorf("parseVmHWM(%q) = %v, want a refusal", line, v)
		}
	}
	rss, err := peakRSSBytes()
	if err != nil || rss < 1<<20 {
		t.Errorf("peakRSSBytes = %v, %v; want at least a megabyte", rss, err)
	}
}

func TestSelfTimeExact(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},     // overlaps a: [10,50) counts once
		{Name: "c", Start: 60, End: 70, Parent: 0},     //
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a.inner", Start: 12, End: 20, Parent: 1},
		{Name: "other root", Start: 0, End: 7, Parent: -1},
	}
	// step: 100 - (40 + 10 + 10); a: 20 - 8; the rest have no children.
	want := []int64{40, 12, 30, 10, 30, 8, 7}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
