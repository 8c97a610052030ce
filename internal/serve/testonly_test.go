package serve

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Calls reports how many ForwardBatch calls the replica has seen.
func (f *Flaky) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}
