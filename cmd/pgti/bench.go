package main

import (
	"fmt"
	"io"
	"strings"

	"pgti/internal/experiments"
)

// runBench regenerates the paper's tables and figures (table1-6, fig2-10,
// or all). Each experiment prints the paper's reference numbers next to the
// modeled full-scale values and the measured reduced-scale values.
func runBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", " <experiment>...\navailable: all "+strings.Join(experiments.IDs(), " "), stderr)
	s := sharedFlags{scale: 0.02, epochs: 6, seed: 42}
	s.register(fs, "scale", "epochs", "seed")
	quick := fs.Bool("quick", false, "trim measured runs to smoke-test size")
	progress := fs.Bool("progress", false, "stream per-epoch progress of the measured runs to stderr")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	opt := experiments.Options{
		Out:    stdout,
		Scale:  s.scale,
		Epochs: s.epochs,
		Seed:   s.seed,
		Quick:  *quick,
	}
	if *progress {
		// Live per-epoch lines from the engine's event stream; stderr keeps
		// the report output on stdout clean.
		opt.Progress = stderr
	}
	for _, id := range fs.Args() {
		var err error
		if id == "all" {
			err = experiments.RunAll(opt)
		} else {
			err = experiments.Run(id, opt)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pgti bench: %v\n", err)
			return 1
		}
	}
	return 0
}
