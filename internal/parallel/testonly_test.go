package parallel

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Workers returns the pool width (the maximum compute parallelism).
func Workers() int { return current.Load().width }
