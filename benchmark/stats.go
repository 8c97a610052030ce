package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fasterHalf returns the faster half of xs (the middle value included when
// the count is odd), fastest first: the smallest values, or the largest when
// a higher value is the faster one (a rate).
func fasterHalf(xs []float64, higherIsFaster bool) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsFaster {
		slices.Reverse(s)
	}
	return s[:(len(s)+1)/2]
}

// calm is the median of the faster half of xs: what a run reports for a
// timing it took once per slice (train unit, burst, round). On a shared
// host a neighbour's load slows single slices by a third to a half and
// never speeds one up, while a change to the program moves every slice
// alike, since all of them do the same work. The plain median follows the
// host as soon as it disturbs half of the slices; this follows it only once
// it disturbs three quarters of them.
func calm(xs []float64, higherIsFaster bool) float64 {
	return median(fasterHalf(xs, higherIsFaster))
}

// calmSamples pools the latency samples of the calmer half of the slices,
// those with the lowest medians, so that percentiles are taken over
// requests the host left alone. Empty slices are left out.
func calmSamples(parts [][]float64) []float64 {
	parts = slices.DeleteFunc(slices.Clone(parts), func(s []float64) bool { return len(s) == 0 })
	order := make([]int, len(parts))
	meds := make([]float64, len(parts))
	for i, s := range parts {
		order[i], meds[i] = i, median(s)
	}
	sort.SliceStable(order, func(a, b int) bool { return meds[order[a]] < meds[order[b]] })
	var pool []float64
	for _, i := range order[:(len(order)+1)/2] {
		pool = append(pool, parts[i]...)
	}
	return pool
}

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the value is one or two outliers, not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100).
// It refuses, with an error, when fewer than minBeyond samples lie beyond
// the returned rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so that
// spreads computed here match the ones the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), nil
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	m := median(xs)
	if m == 0 {
		return 0, fmt.Errorf("spread of a zero median")
	}
	return math.Abs((q3 - q1) / m), nil
}

// poissonSchedule returns the due times of a seeded Poisson arrival process
// of the given rate (1/s) over the given duration: exponential gaps, so the
// generator does not slow down when the system under test does.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x706f6973736f6e)) // "poisson"
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// peakRSSBytes reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status.
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := parseVmHWM(sc.Text()); ok {
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// parseVmHWM parses one /proc/self/status line of the form
// "VmHWM:      1788 kB" into bytes.
func parseVmHWM(line string) (int64, bool) {
	rest, ok := strings.CutPrefix(line, "VmHWM:")
	if !ok {
		return 0, false
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 || fields[1] != "kB" {
		return 0, false
	}
	kb, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, false
	}
	return kb * 1024, true
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice, and a child is clipped to its parent's interval).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cursor), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}
