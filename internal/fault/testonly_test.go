package fault

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Empty reports whether the plan schedules no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Degrades) == 0 && len(p.Stragglers) == 0)
}
