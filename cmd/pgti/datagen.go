package main

import (
	"fmt"
	"io"

	"pgti/internal/dataset"
	"pgti/internal/memsim"
)

// runDatagen generates, lists and inspects the synthetic spatiotemporal
// datasets used by the reproduction.
func runDatagen(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("datagen", "", stderr)
	s := sharedFlags{scale: 1, seed: 1}
	s.register(fs, "dataset", "scale", "seed")
	list := fs.Bool("list", false, "list available datasets and sizes")
	out := fs.String("out", "", "output path for the binary signal file")
	inspect := fs.String("inspect", "", "inspect an existing signal file")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pgti datagen: %v\n", err)
		return 1
	}

	switch {
	case *list:
		fmt.Fprintf(stdout, "%-20s %8s %9s %3s %14s %14s\n", "Dataset", "Nodes", "Entries", "h", "Raw", "After eq. (1)")
		for _, m := range dataset.All() {
			fmt.Fprintf(stdout, "%-20s %8d %9d %3d %14s %14s\n",
				m.Name, m.Nodes, m.Entries, m.Horizon,
				memsim.FormatBytes(m.RawBytes()), memsim.FormatBytes(m.StandardBytes()))
		}
	case *inspect != "":
		sig, err := dataset.LoadSignal(*inspect)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: shape %v, %s, mean %.4f, min %.4f, max %.4f\n",
			*inspect, sig.Shape(), memsim.FormatBytes(sig.NumBytes()),
			sig.MeanAll(), sig.MinAll(), sig.MaxAll())
	case s.dataset != "":
		meta, err := dataset.ByName(s.dataset)
		if err != nil {
			return fail(err)
		}
		if s.scale > 0 && s.scale < 1 {
			meta = meta.Scaled(s.scale)
		}
		ds, err := dataset.Generate(meta, s.seed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "generated %s: %d entries x %d nodes x %d features (%s), graph degree %.1f\n",
			meta.Name, ds.Data.Dim(0), ds.Data.Dim(1), ds.Data.Dim(2),
			memsim.FormatBytes(ds.Data.NumBytes()), ds.Graph.AverageDegree())
		if *out != "" {
			if err := dataset.SaveSignal(*out, ds.Data); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", *out)
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}
