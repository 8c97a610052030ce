package core

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"pgti/internal/dataset"
)

var updateGoldens = flag.Bool("update", false, "re-record testdata/single_gpu_goldens.jsonl from the engine under test")

const singleGPUGoldens = "testdata/single_gpu_goldens.jsonl"

// singleGPUGolden is one row of testdata/single_gpu_goldens.jsonl: a
// single-GPU configuration and what the retired core.fitSingle loop produced
// for it at commit 7b8aa94, the last one that had that loop. The rows cover
// {Baseline, Index, GPUIndex} x the four model kinds x {plain, MissingFrac
// 0.1, LoadCheckpoint warm start, ResumeCheckpoint resume, tight ClipNorm}.
// Curve and TestMSE values are float64 bit patterns.
type singleGPUGolden struct {
	Strategy string   `json:"strategy"`
	Model    string   `json:"model"`
	Variant  string   `json:"variant"`
	Epochs   []int    `json:"epochs"`
	Curve    []string `json:"curve"` // train, val per epoch
	Steps    int      `json:"steps"`
	PeakSys  int64    `json:"peak_sys"`
	PeakGPU  int64    `json:"peak_gpu"`
	Retained int64    `json:"retained"`
	LastMem  int64    `json:"last_mem"` // final MemorySeries sample
	TestMSE  string   `json:"test_mse"`
}

// goldenMeta is a traffic-domain dataset (time-of-day feature, so
// MissingFrac has zeros to inject) small enough that the 60 rows train in
// seconds: 91 snapshots, 8 full train batches, a ragged validation tail.
var goldenMeta = dataset.Meta{
	Name: "golden-tiny", Domain: dataset.Traffic,
	Nodes: 5, Entries: 96, RawFeatures: 1, TimeOfDay: true,
	Horizon: 3, PeriodSteps: 24, NeighborsK: 2,
}

var goldenVariants = []string{"plain", "missing", "warm", "resume", "clip"}

// goldenRun executes one golden configuration. ckpt is the checkpoint the
// (strategy, model) pair's plain run saves; warm loads it and resume
// continues it for one more epoch.
func goldenRun(strategy Strategy, model ModelKind, variant, ckpt string) (*Report, error) {
	cfg := Config{
		Meta: goldenMeta, Model: model, Strategy: strategy,
		BatchSize: 8, Epochs: 2, LR: 0.01, Hidden: 8, K: 1, Seed: 42,
	}
	switch variant {
	case "plain":
		cfg.SaveCheckpoint = ckpt
	case "missing":
		cfg.MissingFrac = 0.1
	case "warm":
		cfg.LoadCheckpoint = ckpt
	case "resume":
		cfg.ResumeCheckpoint = ckpt
		cfg.Epochs = 3
	case "clip":
		cfg.ClipNorm = 0.05
	}
	return Run(cfg)
}

func goldenRow(strategy Strategy, model ModelKind, variant string, rep *Report) singleGPUGolden {
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	row := singleGPUGolden{
		Strategy: strategy.String(), Model: model.String(), Variant: variant,
		Steps: rep.Steps, PeakSys: rep.PeakSystemBytes, PeakGPU: rep.PeakGPUBytes,
		Retained: rep.RetainedDataBytes,
		LastMem:  rep.MemorySeries[len(rep.MemorySeries)-1].Bytes,
		TestMSE:  bits(rep.TestMSE),
	}
	for _, rec := range rep.Curve {
		row.Epochs = append(row.Epochs, rec.Epoch)
		row.Curve = append(row.Curve, bits(rec.TrainMAE), bits(rec.ValMAE))
	}
	return row
}

// ulpDiff is the distance between two finite same-sign floats, given as hex
// bit patterns, in units in the last place.
func ulpDiff(a, b string) uint64 {
	x, _ := strconv.ParseUint(a, 16, 64)
	y, _ := strconv.ParseUint(b, 16, 64)
	if x > y {
		return x - y
	}
	return y - x
}

// TestSingleGPUMatchesRetiredLoop is the characterization contract of the
// single-GPU fold: training Baseline, Index and GPUIndex on the 1x1 grid
// reproduces every row recorded from the retired core.fitSingle loop —
// integers and TestMSE exactly, TrainMAE/ValMAE within 1 ulp (the grid
// reduces each epoch mean through ddp.ReduceWeighted's mean*n/n round trip;
// observed maximum over the 60 rows: 1 ulp).
func TestSingleGPUMatchesRetiredLoop(t *testing.T) {
	strategies := []Strategy{Baseline, Index, GPUIndex}
	models := []ModelKind{ModelPGTDCRNN, ModelDCRNN, ModelA3TGCN, ModelSTLLM}
	want := map[string]singleGPUGolden{}
	if !*updateGoldens {
		f, err := os.Open(singleGPUGoldens)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			var row singleGPUGolden
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatal(err)
			}
			want[row.Strategy+"/"+row.Model+"/"+row.Variant] = row
		}
		if len(want) != len(strategies)*len(models)*len(goldenVariants) {
			t.Fatalf("golden file has %d rows, want %d", len(want), len(strategies)*len(models)*len(goldenVariants))
		}
	}
	var recorded []singleGPUGolden
	var maxUlp uint64
	for _, strategy := range strategies {
		for _, model := range models {
			ckpt := filepath.Join(t.TempDir(), "plain.pgtc")
			for _, variant := range goldenVariants {
				rep, err := goldenRun(strategy, model, variant, ckpt)
				if err != nil {
					t.Fatalf("%v/%v/%s: %v", strategy, model, variant, err)
				}
				got := goldenRow(strategy, model, variant, rep)
				if *updateGoldens {
					recorded = append(recorded, got)
					continue
				}
				key := got.Strategy + "/" + got.Model + "/" + got.Variant
				w := want[key]
				if len(got.Curve) != len(w.Curve) || !reflect.DeepEqual(got.Epochs, w.Epochs) {
					t.Fatalf("%s: epochs %v (%d curve values), want %v (%d)", key, got.Epochs, len(got.Curve), w.Epochs, len(w.Curve))
				}
				for i := range w.Curve {
					d := ulpDiff(got.Curve[i], w.Curve[i])
					if d > maxUlp {
						maxUlp = d
					}
					if d > 1 {
						t.Errorf("%s: curve[%d] = %s, retired loop %s (%d ulp)", key, i, got.Curve[i], w.Curve[i], d)
					}
				}
				got.Curve, w.Curve = nil, nil
				if !reflect.DeepEqual(got, w) {
					t.Errorf("%s:\n got %+v\nwant %+v", key, got, w)
				}
			}
		}
	}
	if *updateGoldens {
		f, err := os.Create(singleGPUGoldens)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, row := range recorded {
			if err := enc.Encode(row); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("recorded %d rows", len(recorded))
		return
	}
	t.Logf("max curve deviation from the retired loop: %d ulp", maxUlp)
}
