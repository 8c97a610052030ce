package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric: both
// sets' medians, their ratio with its base, the bound and a verdict. b is
// "worse" when its median is worse than a's by more than the bound, and
// "unresolved" when either set's own spread (interquartile distance over
// median) is wider than the bound, unless every run of b reads better than
// every run of a.
func compareFiles(w io.Writer, specPath, aPath, bPath string) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b resultsFile
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	values := func(rf resultsFile, workload, metric string) []float64 {
		var vs []float64
		for _, run := range rf.Runs {
			if m, ok := run.Metrics[metric]; ok && run.Workload == workload && run.Trace == 0 {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "a = %s (%d runs, commit %q)\nb = %s (%d runs, commit %q)\n\n", aPath, len(a.Runs), a.Env.Commit, bPath, len(b.Runs), b.Env.Commit)
	fmt.Fprintf(w, "%-18s %-20s %-6s %13s %13s %15s %7s %8s %8s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "b/a (base a)", "bound", "spread a", "spread b", "verdict")
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-20s %-6s %13s %13s %15s %7.3f %8s %8s  %s\n", wl.Name, m.Name, m.Unit, "-", "-", "-", m.Bound, "-", "-", "missing")
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means b is worse than a, as a share of a.
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			// One run a side has no spread; it compares as it stands.
			sa, _ := spread(va)
			sb, _ := spread(vb)
			allBetter := slices.Min(vb) > slices.Max(va)
			if m.Better == "lower" {
				allBetter = slices.Max(vb) < slices.Min(va)
			}
			verdict := "ok"
			switch {
			case (sa > m.Bound || sb > m.Bound) && !allBetter:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-18s %-20s %-6s %13.6g %13.6g %15.4f %7.3f %8.4f %8.4f  %s\n",
				wl.Name, m.Name, m.Unit, ma, mb, mb/ma, m.Bound, sa, sb, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
