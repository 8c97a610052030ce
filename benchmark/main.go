// Command benchmark is the host-measured benchmark of the pgti reproduction:
// five workloads driven through the public API with ComputeCost unset,
// reporting wall-clock, bytes and allocations end to end (--trace 0) and
// layer by layer (--trace 1). BENCHMARK.json at the repo root declares the
// workloads, metrics and bounds; README.md in this directory defines them.
//
// The acceptance driver runs
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output: one JSON object with the keys
// correct, attempted, failed and metrics. Everything meant for people goes
// to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

const defaultSeed = 42

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string // where the traced run writes <workload>.trace.json
	// curveOnly stops a workload once its first train unit has produced the
	// canonical curve; -update-golden needs nothing else.
	curveOnly bool
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var cfg runConfig
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (one of "+fmt.Sprint(workloadNames())+"); empty runs all of them, one process each")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed for WithSeed, the request windows and the arrival schedule")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer replay")
	fs.BoolVar(&cfg.quick, "quick", false, "toy sizes, for the smoke test")
	fs.StringVar(&cfg.outDir, "trace-dir", filepath.Join("benchmark", "out"), "directory for <workload>.trace.json")
	repeat := fs.Int("repeat", 1, "with no -workload: end-to-end runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "with no -workload: write the collected results to this file")
	commit := fs.String("commit", "", "with no -workload: commit hash to record in the results file")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: the benchmark declaration holding the bounds")
	updateGolden := fs.Bool("update-golden", false, "rewrite the default-seed curves and exit")
	goldenPath := fs.String("golden-path", filepath.Join("benchmark", "golden.json"), "with -update-golden: file to write")
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files, got %d arguments", fs.NArg())
		}
		return compareFiles(os.Stdout, *spec, fs.Arg(0), fs.Arg(1))
	case *updateGolden:
		return writeGolden(*goldenPath)
	case cfg.workload == "":
		return runAll(cfg, *repeat, *out, *commit)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printMetrics(os.Stderr, cfg, res)
	return json.NewEncoder(os.Stdout).Encode(res)
}

// printMetrics lists every metric by name with its unit, for people.
func printMetrics(w io.Writer, cfg runConfig, res result) {
	fmt.Fprintf(w, "\n%s seed=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.trace, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
}
