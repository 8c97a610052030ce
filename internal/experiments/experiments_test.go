package experiments

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"pgti/internal/core"
	"pgti/internal/memsim"
)

// quickOpts returns fast options writing into a buffer.
func quickOpts() (Options, *bytes.Buffer) {
	var buf bytes.Buffer
	return Options{Out: &buf, Quick: true, Seed: 7}, &buf
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := []string{"ablation", "fig10", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
		"table1", "table2", "table3", "table4", "table5", "table6"}
	if len(ids) != len(want) {
		t.Fatalf("got %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %q want %q", i, ids[i], want[i])
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("table99", Options{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestTable1(t *testing.T) {
	opt, buf := quickOpts()
	if err := Table1(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"PeMS", "Chickenpox-Hungary", "419.5", "eq1: true", "eq2: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	opt, buf := quickOpts()
	if err := Table2(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DCRNN", "PGT-DCRNN", "paper 68.48", "371.25", "measured"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2(t *testing.T) {
	opt, buf := quickOpts()
	if err := Fig2(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "OOM") || !strings.Contains(out, "standard OOMs: true, index fits: true") {
		t.Fatalf("fig2 output missing OOM semantics:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	opt, buf := quickOpts()
	if err := Fig3(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stage 1", "stage 2", "stage 3", "eq. 2", "true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3AndFig5(t *testing.T) {
	opt, buf := quickOpts()
	if err := Table3(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Index-Chickenpox") {
		t.Fatalf("table3 output missing rows:\n%s", buf.String())
	}
	opt2, buf2 := quickOpts()
	if err := Fig5(opt2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "baseline") {
		t.Fatalf("fig5 output missing curve:\n%s", buf2.String())
	}
}

func TestTable4AndFig6(t *testing.T) {
	opt, buf := quickOpts()
	if err := Table4(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Index-batching", "GPU-index-batching", "paper 333.58", "paper 290.65"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table4 output missing %q:\n%s", want, out)
		}
	}
	opt2, buf2 := quickOpts()
	if err := Fig6(opt2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "45.84") {
		t.Fatalf("fig6 output missing anchor:\n%s", buf2.String())
	}
}

func TestFig7(t *testing.T) {
	opt, buf := quickOpts()
	if err := Fig7(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"128", "ratio", "11.78x", "measured"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8(t *testing.T) {
	opt, buf := quickOpts()
	if err := Fig8(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best val") {
		t.Fatalf("fig8 output malformed:\n%s", buf.String())
	}
}

func TestTable5(t *testing.T) {
	opt, buf := quickOpts()
	if err := Table5(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "global shuffle") {
		t.Fatalf("table5 output malformed:\n%s", buf.String())
	}
}

func TestFig9(t *testing.T) {
	opt, buf := quickOpts()
	if err := Fig9(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DDP epoch", "Idx epoch", "53.28", "measured"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig9 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable6(t *testing.T) {
	opt, buf := quickOpts()
	if err := Table6(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "A3T-GCN") || !strings.Contains(out, "Test MSE") {
		t.Fatalf("table6 output malformed:\n%s", out)
	}
}

func TestFig10(t *testing.T) {
	opt, buf := quickOpts()
	if err := Fig10(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ST-LLM") || !strings.Contains(out, "30.01x") {
		t.Fatalf("fig10 output malformed:\n%s", out)
	}
}

func TestAblation(t *testing.T) {
	opt, buf := quickOpts()
	if err := Ablation(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"horizon", "ring", "naive", "global-shuffle", "views"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	samples := []memsim.Sample{{Progress: 0, Bytes: 1}, {Progress: 0.5, Bytes: 100}, {Progress: 1, Bytes: 10}}
	s := sparkline(samples, 10)
	if len([]rune(s)) != 10 {
		t.Fatalf("sparkline width %d", len([]rune(s)))
	}
	if sparkline(nil, 10) != "" {
		t.Fatal("empty series must render empty")
	}
}

// TestRunRejectsOutOfRangeScale: Run and RunAll refuse a Scale the engine
// would refuse, instead of running at another scale; 0 still selects the
// default.
func TestRunRejectsOutOfRangeScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), -0.5, 5} {
		opt := Options{Out: io.Discard, Quick: true, Scale: scale}
		var invalid *core.InvalidConfigError
		if err := Run("table1", opt); !errors.As(err, &invalid) {
			t.Fatalf("Run at scale %v: %v, want an invalid-config error", scale, err)
		}
		if err := RunAll(opt); !errors.As(err, &invalid) {
			t.Fatalf("RunAll at scale %v: %v, want an invalid-config error", scale, err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.filled()
	if o.Out == nil || o.Scale != 0.02 || o.Epochs != 6 || o.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	q := Options{Quick: true, Epochs: 50, Scale: 0.5}.filled()
	if q.Epochs != 2 || q.Scale != 0.012 {
		t.Fatalf("quick clamps wrong: %+v", q)
	}
}
