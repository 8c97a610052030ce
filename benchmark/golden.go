package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// goldenFile pins the default-seed training curve of every workload's first
// train unit. Float arithmetic differs between architectures (fused
// multiply-add), so the curves hold for the architecture they were recorded
// on; elsewhere, and on any other seed, only the structural checks apply.
type goldenFile struct {
	GoArch string                `json:"goarch"`
	Seed   uint64                `json:"seed"`
	Curves map[string][]curveRow `json:"curves"`
}

//go:embed golden.json
var goldenJSON []byte

// goldenTolerance is relative: the curves are deterministic, so this only
// absorbs the decimal round trip through the file.
const goldenTolerance = 1e-9

// checkGolden compares the run's canonical curve with the recorded one. A
// mismatch is a failed operation.
func (r *run) checkGolden() {
	if r.cfg.quick || r.cfg.seed != defaultSeed {
		return
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		r.ops.check(false, "golden.json: %v", err)
		return
	}
	if g.GoArch != runtime.GOARCH {
		fmt.Fprintf(os.Stderr, "golden curves were recorded on %q, this is %q: structural checks only\n", g.GoArch, runtime.GOARCH)
		return
	}
	want, ok := g.Curves[r.cfg.workload]
	if !r.ops.check(ok, "golden.json has no curve for %s (run -update-golden)", r.cfg.workload) {
		return
	}
	r.ops.check(equalCurves(r.golden, want, goldenTolerance),
		"default-seed curve %v differs from golden %v by more than %g", r.golden, want, goldenTolerance)
}

// writeGolden records the default-seed curves: one train unit per workload.
func writeGolden(path string) error {
	g := goldenFile{GoArch: runtime.GOARCH, Seed: defaultSeed, Curves: map[string][]curveRow{}}
	for _, w := range workloads {
		r := &run{cfg: runConfig{workload: w.name, seed: defaultSeed, curveOnly: true}, fit: w.fit,
			values: map[string]float64{}, workers: 1}
		if err := w.run(r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if r.ops.failed > 0 {
			return fmt.Errorf("%s: %d failed operations, not recording", w.name, r.ops.failed)
		}
		g.Curves[w.name] = r.golden
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, r.golden)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
