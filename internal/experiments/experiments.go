// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports, in up to three columns:
//
//	paper     — the number printed in the paper (hard-coded reference)
//	modeled   — the calibrated Polaris cost/memory model at full scale
//	measured  — the real pipelines executed at a scale that fits this host
//
// Absolute paper-scale numbers come from the model (we have no A100s); the
// measured columns demonstrate that the real implementation reproduces the
// *relationships* — who wins, by what factor, what OOMs — at every scale we
// can actually run.
package experiments

import (
	"fmt"
	"io"
	"pgti/internal/core"
	"sort"
	"strings"

	"pgti/internal/memsim"
)

// Options configures an experiment run.
type Options struct {
	// Out receives the experiment's report (defaults to io.Discard).
	Out io.Writer
	// Scale is the measured-mode dataset scale factor, in (0, 1]; 0 selects
	// the default 0.02, and Run rejects anything else.
	Scale float64
	// Epochs is the measured-mode epoch budget (default 6).
	Epochs int
	// Seed drives all randomness.
	Seed uint64
	// Quick trims measured work to a smoke-test level (used by benches and
	// CI).
	Quick bool
	// Progress, when set, receives live per-epoch progress lines from the
	// measured runs (wired through the engine's typed event stream;
	// pgti bench's -progress flag). Nil keeps runs silent.
	Progress io.Writer
}

func (o Options) filled() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.Epochs <= 0 {
		o.Epochs = 6
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Quick {
		if o.Epochs > 2 {
			o.Epochs = 2
		}
		if o.Scale > 0.012 {
			o.Scale = 0.012
		}
	}
	return o
}

// Func runs one experiment.
type Func func(Options) error

// runMeasured executes one measured run through the staged engine,
// streaming epoch events to opt.Progress when set — live visibility into
// the long experiments without touching their report-shaped output.
func runMeasured(cfg core.Config, opt Options) (*core.Report, error) {
	if opt.Progress != nil {
		out := opt.Progress
		cfg.Events = func(ev core.Event) {
			if e, ok := ev.(core.EpochEvent); ok {
				fmt.Fprintf(out, "    %s/%v epoch %d: train MAE %.4f, val MAE %.4f\n",
					cfg.Meta.Name, cfg.Strategy, e.Epoch, e.TrainMAE, e.ValMAE)
			}
		}
	}
	return core.Run(cfg)
}

// registry maps experiment ids to implementations.
var registry = map[string]Func{
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"table4": Table4,
	"table5": Table5,
	"table6": Table6,
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id; core.CheckScale vets Scale.
func Run(id string, opt Options) error {
	f, ok := registry[strings.ToLower(id)]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (available: %s)", id, strings.Join(IDs(), ", "))
	}
	if err := core.CheckScale(opt.Scale); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return f(opt)
}

// RunAll executes every experiment in id order.
func RunAll(opt Options) error {
	for _, id := range IDs() {
		if err := Run(id, opt); err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
	}
	return nil
}

// --- formatting helpers -----------------------------------------------------

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

func gb(b int64) float64 { return float64(b) / float64(memsim.GiB) }

// row prints aligned columns.
func row(w io.Writer, cols ...string) {
	fmt.Fprintln(w, strings.Join(cols, "  "))
}

// sparkline renders a byte series as a compact ASCII curve for terminal
// figures.
func sparkline(samples []memsim.Sample, width int) string {
	if len(samples) == 0 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	var maxB int64 = 1
	for _, s := range samples {
		if s.Bytes > maxB {
			maxB = s.Bytes
		}
	}
	if width <= 0 {
		width = 60
	}
	out := make([]rune, 0, width)
	for i := 0; i < width; i++ {
		idx := i * (len(samples) - 1) / maxInt(1, width-1)
		level := int(float64(samples[idx].Bytes) / float64(maxB) * float64(len(marks)-1))
		out = append(out, marks[level])
	}
	return string(out)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
