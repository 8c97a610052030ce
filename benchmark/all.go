package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// runRecord is one run of one workload, as kept in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// resultsFile is what -out writes and -compare reads: the runs of one
// commit on one machine.
type resultsFile struct {
	Env struct {
		NProc   int     `json:"nproc"`
		Procs   int     `json:"gomaxprocs"`
		Go      string  `json:"go"`
		OS      string  `json:"os"`
		Arch    string  `json:"arch"`
		Commit  string  `json:"commit,omitempty"`
		Seconds float64 `json:"seconds"`
		Quick   bool    `json:"quick,omitempty"`
	} `json:"env"`
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload, strictly one at a time and each in a process
// of its own, so that peak RSS and GC state do not leak from one workload
// into the next: repeat end-to-end runs on consecutive seeds, then one
// traced run.
func runAll(cfg runConfig, repeat int, out, commit string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rf resultsFile
	rf.Env.NProc, rf.Env.Procs = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	rf.Env.Go, rf.Env.OS, rf.Env.Arch = runtime.Version(), runtime.GOOS, runtime.GOARCH
	rf.Env.Commit, rf.Env.Seconds, rf.Env.Quick = commit, cfg.seconds, cfg.quick
	failed := 0
	for _, w := range workloads {
		for i := 0; i <= repeat; i++ {
			rec := runRecord{Workload: w.name, Seed: cfg.seed + uint64(i)}
			if i == repeat { // the traced run, on the first seed
				rec.Seed, rec.Trace = cfg.seed, 1
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(rec.Seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(rec.Trace), "-trace-dir", cfg.outDir}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", w.name, rec.Seed, rec.Trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
				return fmt.Errorf("%s: reading the result line: %w", w.name, err)
			}
			failed += rec.Failed
			rf.Runs = append(rf.Runs, rec)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
