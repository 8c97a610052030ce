// Package memsim provides byte-exact memory accounting for the reproduction.
//
// The paper's central claims are about memory: the standard ST-GNN pipeline
// inflates a dataset by eq. (1) and OOMs a 512 GB node on PeMS, while
// index-batching stays at eq. (2). Tracker plays the role of psutil/pynvml
// in the paper's methodology: pipelines register every allocation (real at
// measured scale, virtual at paper scale), the tracker enforces a capacity
// (returning OOMError exactly where the paper's runs crashed), records the
// peak, and samples a progress-indexed usage series that regenerates the
// curves of Figs. 2 and 6.
package memsim

import (
	"fmt"
	"sync"
)

// Byte size units. The paper's tables mix decimal and binary prefixes; this
// package standardizes on binary (GiB) and the experiment harnesses label
// units explicitly.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// OOMError reports an allocation that exceeded the tracker's capacity.
type OOMError struct {
	Tracker   string
	Label     string
	Requested int64
	Current   int64
	Capacity  int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("memsim: %s out of memory allocating %q: %s requested with %s in use of %s capacity",
		e.Tracker, e.Label, FormatBytes(e.Requested), FormatBytes(e.Current), FormatBytes(e.Capacity))
}

// Sample is one point of a usage-over-progress curve.
type Sample struct {
	Progress float64 // workflow progress in [0, 1]
	Bytes    int64
}

// Tracker is a labeled memory accountant with optional capacity.
type Tracker struct {
	mu       sync.Mutex
	name     string
	capacity int64 // 0 = unlimited
	current  int64
	peak     int64
	labels   map[string]int64
	series   []Sample
}

// NewTracker returns a tracker with the given capacity in bytes
// (0 = unlimited).
func NewTracker(name string, capacity int64) *Tracker {
	return &Tracker{name: name, capacity: capacity, labels: map[string]int64{}}
}

// Capacity returns the configured capacity (0 = unlimited).
func (t *Tracker) Capacity() int64 { return t.capacity }

// Alloc records an allocation under label. It returns an OOMError (without
// recording the allocation) when the capacity would be exceeded; the failed
// request is still reflected in the peak, mirroring how a crashing process
// is observed at its high-water mark.
func (t *Tracker) Alloc(label string, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("memsim: negative allocation %d for %q", bytes, label)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capacity > 0 && t.current+bytes > t.capacity {
		if t.capacity > t.peak {
			t.peak = t.capacity
		}
		return &OOMError{Tracker: t.name, Label: label, Requested: bytes, Current: t.current, Capacity: t.capacity}
	}
	t.current += bytes
	t.labels[label] += bytes
	if t.current > t.peak {
		t.peak = t.current
	}
	return nil
}

// MustAlloc is Alloc for callers that have already checked capacity
// (e.g. unlimited trackers); it panics on failure.
func (t *Tracker) MustAlloc(label string, bytes int64) {
	if err := t.Alloc(label, bytes); err != nil {
		panic(err)
	}
}

// Free releases bytes previously allocated under label. Releasing more than
// allocated for a label panics: it indicates an accounting bug.
func (t *Tracker) Free(label string, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.labels[label] < bytes {
		panic(fmt.Sprintf("memsim: freeing %s of %q but only %s allocated", FormatBytes(bytes), label, FormatBytes(t.labels[label])))
	}
	t.labels[label] -= bytes
	if t.labels[label] == 0 {
		delete(t.labels, label)
	}
	t.current -= bytes
}

// FreeAll releases every byte held under label and returns the amount.
func (t *Tracker) FreeAll(label string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.labels[label]
	delete(t.labels, label)
	t.current -= b
	return b
}

// Current returns the bytes currently accounted.
func (t *Tracker) Current() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// Peak returns the high-water mark.
func (t *Tracker) Peak() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// LabelBytes returns the bytes currently held under label.
func (t *Tracker) LabelBytes(label string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.labels[label]
}

// Record appends a progress-indexed sample of current usage, building the
// memory-over-time curves of Figs. 2 and 6.
func (t *Tracker) Record(progress float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.series = append(t.series, Sample{Progress: progress, Bytes: t.current})
}

// Series returns a copy of the recorded samples.
func (t *Tracker) Series() []Sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Sample, len(t.series))
	copy(out, t.series)
	return out
}

// FormatBytes renders a byte count with binary prefixes.
func FormatBytes(b int64) string {
	switch {
	case b >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(MiB))
	case b >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
