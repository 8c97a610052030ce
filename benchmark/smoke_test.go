package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// declaration mirrors BENCHMARK.json in full; unknown keys are errors.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	return d
}

// TestDeclarationMatchesHarness keeps BENCHMARK.json inside the benchmark
// contract's limits and equal to what the harness emits.
func TestDeclarationMatchesHarness(t *testing.T) {
	d := readDeclaration(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var names []string
	for _, w := range d.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames())
	}
	for i, w := range workloads {
		if i < len(d.Workloads) && d.Workloads[i].Why != w.why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and the harness", w.name)
		}
	}

	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	var e2e []decl
	for _, m := range d.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, decl{m.Name, m.Unit})
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s and better lower, got %q %q", m.Unit, m.Better)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %v\n harness %v", e2e, endToEnd)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}

	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var layers []decl
	for _, m := range d.PerLayer {
		checkName(m.Name)
		layers = append(layers, decl{m.Name, m.Unit})
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer differs:\n json    %v\n harness %v", layers, perLayer)
	}

	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
	if !slices.Equal(d.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", d.Paths)
	}
	if len(d.Command) == 0 || len(d.Command) > 32 {
		t.Errorf("command has %d parts", len(d.Command))
	}
}

// TestQuickEmitsEveryDeclaredMetric runs every workload at toy size, traced
// and not: each run must check out correct and emit exactly the declared
// metric names; each traced run must leave a well-formed span file.
func TestQuickEmitsEveryDeclaredMetric(t *testing.T) {
	begin := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: defaultSeed, seconds: 0.5, trace: trace, quick: true, outDir: dir}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got, declared []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, d := range want {
				declared = append(declared, d.name)
				if res.Metrics[d.name].Unit != d.unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.name, res.Metrics[d.name].Unit, d.unit)
				}
				if !trace && res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, res.Metrics[d.name].Value)
				}
			}
			sort.Strings(got)
			sort.Strings(declared)
			if !slices.Equal(got, declared) {
				t.Errorf("%s trace=%v emitted %v, declared %v", w.name, trace, got, declared)
			}
			if trace {
				checkTraceFile(t, filepath.Join(dir, w.name+".trace.json"))
			}
		}
	}
	// -race slows the toy runs several times over; the budget is for the
	// plain build that tier-1 style runs use.
	if took := time.Since(begin); took > 5*time.Second && !raceEnabled {
		t.Errorf("the quick runs took %v, over the 5 s budget", took)
	}
}

// checkTraceFile checks that every replayed step's children lie inside it
// one after another, so that its self time plus its children's times is
// exactly its duration.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	var tf traceFile
	if err := readJSON(path, &tf); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tf.Spans)
	steps := 0
	for i, s := range tf.Spans {
		if s.Name != "step" {
			continue
		}
		steps++
		var children int64
		cursor := s.Start
		for _, c := range tf.Spans {
			if c.Parent != i {
				continue
			}
			if c.Start < cursor || c.End > s.End || c.Step != s.Step || c.TID != s.TID {
				t.Errorf("%s: span %s [%d,%d] of step %d does not follow its siblings inside [%d,%d]", path, c.Name, c.Start, c.End, s.Step, s.Start, s.End)
			}
			cursor = c.End
			children += c.End - c.Start
		}
		if self[i]+children != s.End-s.Start {
			t.Errorf("%s: step %d: self %d + children %d != duration %d", path, s.Step, self[i], children, s.End-s.Start)
		}
	}
	if steps == 0 {
		t.Errorf("%s holds no step spans", path)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs map[string][]float64) string {
		var rf resultsFile
		for metric, vs := range runs {
			for i, v := range vs {
				rec := runRecord{Workload: "w1", Seed: uint64(i)}
				rec.Metrics = map[string]metricValue{metric: {Value: v}}
				rf.Runs = append(rf.Runs, rec)
			}
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join(dir, "spec.json")
	err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w1"}],"end_to_end":[
		{"name":"steady","unit":"ms","better":"lower","bound":0.1},
		{"name":"slower","unit":"ms","better":"lower","bound":0.1},
		{"name":"noisy","unit":"1/s","better":"higher","bound":0.1},
		{"name":"noisy_but_clear","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	a := write("a.json", map[string][]float64{
		"steady": {10, 10.1, 9.9, 10}, "slower": {10, 10.1, 9.9, 10},
		"noisy": {100, 140, 60, 100}, "noisy_but_clear": {100, 140, 60, 100},
	})
	b := write("b.json", map[string][]float64{
		"steady": {10.5, 10.4, 10.6, 10.5}, "slower": {12, 12.1, 11.9, 12},
		"noisy": {90, 130, 50, 95}, "noisy_but_clear": {200, 210, 190, 205},
	})
	var out bytes.Buffer
	err = compareFiles(&out, spec, a, b)
	if err == nil || !strings.Contains(err.Error(), "1 metrics worse") {
		t.Errorf("compare error = %v, want exactly one metric worse", err)
	}
	for metric, verdict := range map[string]string{"steady": "ok", "slower": "worse", "noisy": "unresolved", "noisy_but_clear": "ok"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %q, want %q\n%s", metric, f[len(f)-1], verdict, line)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", metric, out.String())
		}
	}
}
