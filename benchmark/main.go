// Command benchmark is the repo's one repeatable performance suite: four
// workloads, each a different regime of the production pipeline
// (workload.Generator -> ingest.Gateway -> dispatch.Engine -> kinetic trees ->
// oracle stack), each run through two rounds of a closed-loop pass and a
// paced open-loop pass and, on request, a traced pass plus stand-alone layer
// probes.
//
//	go run ./benchmark -seed 1                     whole suite, every metric, results under -out
//	go run ./benchmark -workload sharing_peak -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -compare A/results.json B/results.json
//
// With -workload it runs that one workload and ends its output with one JSON
// object (correct, attempted, failed, metrics): the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. README.md defines every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/obs"
)

// defaultSeconds bounds a run's paced passes, taken together, when -seconds
// is not given; it is BENCHMARK.json's run_seconds, at which every workload's
// paced passes still measure their full 600 requests each.
const defaultSeconds = 20

func main() {
	workload := flag.String("workload", "", "run only this workload and end with the result as one JSON line")
	seed := flag.Int64("seed", 1, "seed of the request stream and fleet placement")
	seconds := flag.Int("seconds", defaultSeconds, "upper bound on the length of a run's paced passes, taken together, in seconds")
	trace := flag.Int("trace", 0, "with -workload: 1 adds the traced pass and probes and reports the per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for results.json, BENCH_<workload>.json and trace_<workload>.jsonl")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 on a regression")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	case *workload != "":
		err = runOne(*workload, runOpts{seed: *seed, sizes: suiteSizes, pacedSeconds: *seconds, layers: *trace == 1}, *out)
	default:
		err = runSuite(runOpts{seed: *seed, sizes: suiteSizes, pacedSeconds: *seconds, layers: true}, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two results.json files")
	}
	a, err := readSuite(args[0])
	if err != nil {
		return err
	}
	b, err := readSuite(args[1])
	if err != nil {
		return err
	}
	if !compareSuites(os.Stdout, a, b) {
		return fmt.Errorf("%s regresses against %s", args[1], args[0])
	}
	return nil
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne is the driver entry point: one workload, one JSON result line.
func runOne(name string, o runOpts, out string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	printWorkload(res, o)
	defs, values := endToEnd, res.EndToEnd
	if o.layers {
		defs, values = perLayer, res.PerLayer
		if err := writeTraceFile(out, res); err != nil {
			return err
		}
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runSuite runs every workload with all phases and probes, prints every
// metric and stores the run under out.
func runSuite(o runOpts, out string) error {
	env := obs.NewBenchResult("suite")
	suite := &suiteResults{
		GitSHA: env.GitSHA, GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS, NumCPU: env.NumCPU,
		UnixSec: env.UnixSec, Seed: o.seed, N: o.sizes.closed, Warmup: o.sizes.warmup,
	}
	correct := true
	for _, w := range workloads {
		res, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printWorkload(res, o)
		fmt.Println()
		if err := writeTraceFile(out, res); err != nil {
			return err
		}
		suite.Workloads = append(suite.Workloads, res)
		correct = correct && res.Correct
	}
	if err := writeSuite(out, suite, env); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", filepath.Join(out, "results.json"))
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// printWorkload lists a workload's identity, checks and every metric it
// measured, one per line: name, value, unit.
func printWorkload(r *workloadResult, o runOpts) {
	fmt.Printf("workload=%s stack=%s seed=%d N=%d warmup=%d offered_rps=%g gomaxprocs=%d\n",
		r.Workload, r.Stack, o.seed, o.sizes.closed, o.sizes.warmup, r.OfferedRPS, runtime.GOMAXPROCS(0))
	fmt.Printf("assignment_digest=%s correct=%t attempted=%d failed=%d violations=%d saturated=%t paced_samples=%d tail_percentile=%g",
		r.Digest, r.Correct, r.Attempted, r.Failed, r.Violations, r.Saturated, r.PacedSamples, 100*r.TailPercentile)
	if o.layers {
		fmt.Printf(" regime_ok=%t", r.RegimeOK)
	}
	fmt.Println()
	for _, n := range r.Notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, d := range endToEnd {
		fmt.Printf("%-32s %14.6g %s\n", d.Name, r.EndToEnd[d.Name], d.Unit)
	}
	if r.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Printf("%-32s %14.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
}
