package core

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// TestWindows returns how many held-out test windows PredictTest can serve.
func (p *Predictor) TestWindows() int { return len(p.test) }
