package memsim

import (
	"sort"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Labels returns a sorted snapshot of the per-label usage.
func (t *Tracker) Labels() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.labels))
	for l := range t.labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// RecordValue appends a sample with an explicit byte value (used when
// replaying modeled stage sequences).
func (t *Tracker) RecordValue(progress float64, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.series = append(t.series, Sample{Progress: progress, Bytes: bytes})
	if bytes > t.peak {
		t.peak = bytes
	}
}

// Reset clears usage, peak, labels, and samples.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.current, t.peak = 0, 0
	t.labels = map[string]int64{}
	t.series = nil
}
