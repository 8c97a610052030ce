// Command pgti is the reproduction's command line: one binary whose
// subcommands train, serve, stream, regenerate the paper's tables, generate
// datasets and validate traces.
//
// Examples:
//
//	pgti train -dataset Chickenpox-Hungary -epochs 20
//	pgti train -dataset PeMS-BAY -scale 0.05 -strategy dist-index -workers 4
//	pgti train -dataset PeMS-BAY -scale 0.05 -epochs 8 -save run.pgtc
//	pgti serve -replicas 2 -clients 16 -requests 64
//	pgti stream -rounds 3 -retrain-window 200 -advance 100 -epochs 2
//	pgti bench -quick table5
//	pgti datagen -dataset PeMS-BAY -scale 0.05 -out bay.pgti
//	pgti trace run.json
//
// `pgti <subcommand> -h` lists a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"pgti"
	"pgti/internal/core"
)

// A subcommand parses its own flags from args, writes its report to stdout
// and its diagnostics to stderr, and returns the process exit code: 0 on
// success, 1 when the run fails, 2 on a usage error.
type subcommand struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}

var subcommands = []subcommand{
	{"train", "train a model with any strategy on any dataset", runTrain},
	{"serve", "train, serve under concurrent load, retrain and swap", runServe},
	{"stream", "stream a dataset into rolling retrains behind a live server", runStream},
	{"bench", "regenerate the paper's tables and figures", runBench},
	{"datagen", "generate, list and inspect the synthetic datasets", runDatagen},
	{"trace", "validate and summarize a trace-event JSON file", runTrace},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "pgti: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: pgti <subcommand> [flags]\nsubcommands:")
	for _, c := range subcommands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
}

// newFlagSet returns the flag set of subcommand name; operands describes
// its positional arguments in the usage line.
func newFlagSet(name, operands string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("pgti "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pgti %s [flags]%s\nflags:\n", name, operands)
		fs.PrintDefaults()
	}
	return fs
}

// sharedFlags are the flags more than one subcommand takes. A subcommand
// sets the fields to its defaults and registers the flags it takes.
type sharedFlags struct {
	dataset, trace              string
	scale, lr                   float64
	epochs, workers, shards     int
	batch, hidden, k            int
	replicas, clients, requests int
	seed                        uint64
}

// register declares the named shared flags on fs, each defaulting to its
// field's current value.
func (s *sharedFlags) register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "dataset":
			fs.StringVar(&s.dataset, name, s.dataset, "dataset: "+strings.Join(pgti.Datasets(), "|"))
		case "trace":
			fs.StringVar(&s.trace, name, s.trace, "write a Chrome trace-event JSON of the run to this file (load at ui.perfetto.dev)")
		case "scale":
			fs.Float64Var(&s.scale, name, s.scale, "dataset scale factor (0,1]")
		case "lr":
			fs.Float64Var(&s.lr, name, s.lr, "learning rate")
		case "epochs":
			fs.IntVar(&s.epochs, name, s.epochs, "training epochs (serve: of the first fit; stream: per round)")
		case "workers":
			fs.IntVar(&s.workers, name, s.workers, "data-parallel workers")
		case "shards":
			fs.IntVar(&s.shards, name, s.shards, "spatial graph shards (>1 enables the 2D spatial x data grid)")
		case "batch":
			fs.IntVar(&s.batch, name, s.batch, "per-worker batch size")
		case "hidden":
			fs.IntVar(&s.hidden, name, s.hidden, "hidden units")
		case "k":
			fs.IntVar(&s.k, name, s.k, "diffusion hops")
		case "replicas":
			fs.IntVar(&s.replicas, name, s.replicas, "replica slots over the one served model")
		case "clients":
			fs.IntVar(&s.clients, name, s.clients, "concurrent clients")
		case "requests":
			fs.IntVar(&s.requests, name, s.requests, "requests per client")
		case "seed":
			fs.Uint64Var(&s.seed, name, s.seed, "random seed (generator, init, shuffling)")
		default:
			panic("pgti: no shared flag " + name)
		}
	}
}

// parseFlags parses args into fs. When the subcommand must stop it returns
// false and the exit code: 0 after -h, 2 on a usage error — among them a
// -scale that core.Config.Validate would reject, with its message.
func parseFlags(fs *flag.FlagSet, args []string) (int, bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if f := fs.Lookup("scale"); f != nil {
		if err := core.CheckScale(f.Value.(flag.Getter).Get().(float64)); err != nil {
			fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
			return 2, false
		}
	}
	return 0, true
}

// sortedKeys lists a name table's keys in order, for usage and error text.
func sortedKeys[V any](m map[string]V) string {
	return strings.Join(slices.Sorted(maps.Keys(m)), "|")
}
