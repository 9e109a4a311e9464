package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// suiteResults is results.json: one full run of the suite, with enough of
// the environment to tell whether two files are comparable.
type suiteResults struct {
	GitSHA     string            `json:"git_sha"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	UnixSec    int64             `json:"unix_sec"`
	Seed       int64             `json:"seed"`
	N          int               `json:"n"` // measured requests of the closed phase
	Warmup     int               `json:"warmup"`
	Workloads  []*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuite(path string) (*suiteResults, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResults
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// writeSuite stores a suite run under dir: results.json and one
// BENCH_<workload>.json per workload in the repo's benchmark-row format (so
// cmd/benchcheck validates them).
func writeSuite(dir string, s *suiteResults, env *obs.BenchResult) error {
	if err := writeJSON(filepath.Join(dir, "results.json"), s); err != nil {
		return err
	}
	for _, r := range s.Workloads {
		row := *env
		row.Name = r.Workload
		// The row format carries numbers only; the run's identity rides
		// along as metrics, the stack path as a 0/1 flag under its name.
		row.Metrics = map[string]float64{
			"seed": float64(s.Seed), "n": float64(s.N), "offered_rps": r.OfferedRPS,
			"stack." + strings.ReplaceAll(r.Stack, "-", "_"): 1,
			"failed": float64(r.Failed),
		}
		for k, v := range r.EndToEnd {
			row.Metrics[k] = v
		}
		for k, v := range r.PerLayer {
			if v >= 0 { // the row format refuses negatives (trace overhead can be one)
				row.Metrics[k] = v
			}
		}
		if err := obs.WriteBench(dir, &row); err != nil {
			return err
		}
	}
	return nil
}

// writeTraceFile writes a workload's traced pass to dir/trace_<workload>.jsonl
// and lets go of it: a pass holds megabytes of spans, which must not sit in
// the heap while the next workload's heap_live_mb is taken.
func writeTraceFile(dir string, r *workloadResult) (err error) {
	traced := r.traced
	r.traced = nil
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+r.Workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return writeTrace(f, traced.program, traced.spans)
}
