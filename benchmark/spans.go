package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later change). Start and End are
// nanoseconds since the recorder was created. Spans of one replayed step
// share Step; TID is the worker rank that made the call.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Step   int    `json:"step"`   // -1 outside a replayed step
	TID    int    `json:"tid"`
	// Sampled marks a span whose Allocs and Bytes are valid: the process-wide
	// MemStats.Mallocs and TotalAlloc deltas across it. Reading them stops
	// the world, so a sampled span's times are not used for timing metrics;
	// the replay samples every other step, on rank 0. With one worker the
	// deltas are exact; with W workers running the same phase side by side
	// they hold roughly W workers' allocations, which the per-layer metrics
	// divide back out.
	Sampled bool   `json:"allocs_sampled"`
	Allocs  uint64 `json:"allocs"`
	Bytes   uint64 `json:"alloc_bytes"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// heapAllocs reads the exact cumulative allocation counters. It stops the
// world to flush every P's allocation cache (runtime/metrics would not, and
// is then only exact to a span of the allocator's size classes).
func heapAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// begin opens a span and returns its index for end and for child spans.
func (r *recorder) begin(layer, name string, parent, step, tid int, sample bool) int {
	s := span{Layer: layer, Name: name, Parent: parent, Step: step, TID: tid, Sampled: sample}
	if sample {
		s.Allocs, s.Bytes = heapAllocs()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Start = time.Since(r.t0).Nanoseconds()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = end
	sample := r.spans[id].Sampled
	r.mu.Unlock()
	if !sample {
		return
	}
	objects, bytes := heapAllocs()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.Allocs, s.Bytes = objects-s.Allocs, bytes-s.Bytes
}

// timed records fn as a span and returns its duration in seconds.
func (r *recorder) timed(layer, name string, parent, step, tid int, sample bool, fn func()) float64 {
	id := r.begin(layer, name, parent, step, tid, sample)
	fn()
	r.end(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(r.spans[id].End-r.spans[id].Start) / 1e9
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`
	Spans    []span `json:"spans"`
}

func writeTraceFile(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// layerRow is one line of the per-layer table: what rank 0 spent in one
// layer per replayed step.
type layerRow struct {
	Layer          string
	SelfUS         float64 // median self time per step
	Share          float64 // of the median step
	AllocsPerStep  float64 // median, divided by the worker count
	AllocKBPerStep float64
}

// layerTable folds rank 0's replayed step spans into one row per layer. The
// step span itself is the "core" layer: its self time is the step loop's
// own bookkeeping between the calls.
func layerTable(spans []span, workers int) (rows []layerRow, stepUS float64) {
	self := selfTimes(spans)
	// A span's own allocations are its delta minus its children's.
	selfAllocs := make([]uint64, len(spans))
	selfBytes := make([]uint64, len(spans))
	for i, s := range spans {
		selfAllocs[i] += s.Allocs
		selfBytes[i] += s.Bytes
		if p := s.Parent; p >= 0 {
			selfAllocs[p] -= min(s.Allocs, selfAllocs[p])
			selfBytes[p] -= min(s.Bytes, selfBytes[p])
		}
	}
	type perStep struct{ selfNS, allocs, bytes float64 }
	layers := map[string]map[int]*perStep{}
	stepDur := map[int]int64{} // timed (unsampled) steps
	sampled := map[int]bool{}  // steps whose allocations were sampled
	for i, s := range spans {
		if s.Step < 0 || s.TID != 0 {
			continue
		}
		if layers[s.Layer] == nil {
			layers[s.Layer] = map[int]*perStep{}
		}
		a := layers[s.Layer][s.Step]
		if a == nil {
			a = &perStep{}
			layers[s.Layer][s.Step] = a
		}
		a.selfNS += float64(self[i])
		a.allocs += float64(selfAllocs[i])
		a.bytes += float64(selfBytes[i])
		if s.Parent < 0 {
			if s.Sampled {
				sampled[s.Step] = true
			} else {
				stepDur[s.Step] = s.End - s.Start
			}
		}
	}
	var steps []float64
	for _, d := range stepDur {
		steps = append(steps, float64(d)/1e3)
	}
	stepUS = median(steps)
	for name, bySteps := range layers {
		var selfs, allocs, bytes []float64
		for step := range stepDur {
			if a := bySteps[step]; a != nil {
				selfs = append(selfs, a.selfNS/1e3)
			} else {
				selfs = append(selfs, 0)
			}
		}
		for step := range sampled {
			a := bySteps[step]
			if a == nil {
				a = &perStep{}
			}
			allocs = append(allocs, a.allocs/float64(workers))
			bytes = append(bytes, a.bytes/float64(workers)/1024)
		}
		row := layerRow{Layer: name, SelfUS: median(selfs), AllocsPerStep: median(allocs), AllocKBPerStep: median(bytes)}
		if stepUS > 0 {
			row.Share = row.SelfUS / stepUS
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUS > rows[j].SelfUS })
	return rows, stepUS
}

func printLayerTable(w io.Writer, workload string, rows []layerRow, stepUS float64, steps int) {
	fmt.Fprintf(w, "\nper-layer table, %s: rank 0, medians over %d replayed steps (times from the even steps, allocations from the odd ones), step = %.1f us\n", workload, steps, stepUS)
	fmt.Fprintf(w, "  %-10s %14s %8s %14s %14s\n", "layer", "us/step", "share", "allocs/step", "alloc KB/step")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %14.1f %7.1f%% %14.0f %14.1f\n", r.Layer, r.SelfUS, 100*r.Share, r.AllocsPerStep, r.AllocKBPerStep)
	}
}
