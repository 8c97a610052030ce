package trace

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Gauge raises a high-water gauge on this shard (max across workers in the
// snapshot).
func (w *Worker) Gauge(name string, v int64) {
	if w == nil {
		return
	}
	if w.gauges == nil {
		w.gauges = make(map[string]int64)
	}
	if v > w.gauges[name] {
		w.gauges[name] = v
	}
}
