package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// tinySizes is a stream small enough for the race detector: 20 warm-up
// requests and at most 60 measured.
var tinySizes = streamSizes{warmup: 20, closed: 60, paced: 50, traced: 40}

func tinyWorkload(batch float64) workloadSpec {
	return workloadSpec{
		Name: "tiny", Scale: 0.005, Fleet: 40, Capacity: 4, WaitSeconds: 300, Epsilon: 0.2,
		Pattern: workload.Poisson, Lambda: 0.2, BatchWindow: batch, Workers: 2,
		OfferedRPS: 400,
	}
}

// One pass through all three phases and the output checks, immediate and
// batch mode, on a 40-vehicle fleet.
func TestTinyPassAllPhases(t *testing.T) {
	for _, batch := range []float64{0, 30} {
		w := tinyWorkload(batch)
		closed, err := runPhase(w, 3, phaseClosed, tinySizes.warmup, tinySizes.closed)
		if err != nil {
			t.Fatal(err)
		}
		paced, err := runPhase(w, 3, phasePaced, tinySizes.warmup, tinySizes.paced)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runPhase(w, 3, phaseTraced, tinySizes.warmup, tinySizes.traced)
		if err != nil {
			t.Fatal(err)
		}
		res := &workloadResult{}
		checkOutputs(res, []*phaseResult{closed, paced, traced})
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("batch=%g: correct=%t failed=%d notes=%v", batch, res.Correct, res.Failed, res.Notes)
		}
		if want := 3*tinySizes.warmup + tinySizes.closed + tinySizes.paced + tinySizes.traced; res.Attempted != want {
			t.Errorf("batch=%g: attempted %d, want %d", batch, res.Attempted, want)
		}
		if closed.stackPath != stackRidesimMirror && closed.stackPath != stackEngineDefault {
			t.Errorf("stack path %q", closed.stackPath)
		}

		// Same seed, same matching, whatever drives the stream.
		for _, p := range []*phaseResult{paced, traced} {
			if p.comparable < p.warmup || firstDifference(closed, p) >= 0 {
				t.Errorf("batch=%g: %s phase matched differently from closed", batch, p.kind)
			}
		}
		again, err := runPhase(w, 3, phaseClosed, tinySizes.warmup, tinySizes.closed)
		if err != nil {
			t.Fatal(err)
		}
		if assignmentDigest(again.assign) != assignmentDigest(closed.assign) {
			t.Errorf("batch=%g: closed phase digest differs between two runs of one seed", batch)
		}
		other, err := runPhase(w, 4, phaseClosed, tinySizes.warmup, tinySizes.closed)
		if err != nil {
			t.Fatal(err)
		}
		if assignmentDigest(other.assign) == assignmentDigest(closed.assign) {
			t.Errorf("batch=%g: seeds 3 and 4 gave one digest", batch)
		}

		pacedAgain, err := runPhase(w, 3, phasePaced, tinySizes.warmup, tinySizes.paced)
		if err != nil {
			t.Fatal(err)
		}
		rs := []round{{closed, paced}, {again, pacedAgain}}
		e2e := endToEndValues(rs, []time.Duration{closed.setup, paced.setup, again.setup, pacedAgain.setup})
		for _, d := range endToEnd {
			if v, ok := e2e[d.Name]; !ok || !(v > 0) {
				t.Errorf("batch=%g: end-to-end %s = %v, want > 0", batch, d.Name, v)
			}
		}
		// Blocks tile the measured segment, and taking each block from its
		// faster pass cannot make the run slower than its faster pass.
		for _, c := range []*phaseResult{closed, again} {
			if len(c.blockWall) != 1 || sumDurations(c.blockWall) != c.wall || sumDurations(c.blockCPU) != c.cpu {
				t.Errorf("batch=%g: blocks %v / %v do not tile wall %v / cpu %v", batch, c.blockWall, c.blockCPU, c.wall, c.cpu)
			}
		}
		faster := closed.wall
		if again.wall < faster {
			faster = again.wall
		}
		if floor := float64(tinySizes.closed) / faster.Seconds(); e2e["capacity_rps"] < floor {
			t.Errorf("batch=%g: capacity %v below the faster pass's %v", batch, e2e["capacity_rps"], floor)
		}
		if len(paced.latency) != tinySizes.paced || len(paced.queueing()) != tinySizes.paced {
			t.Errorf("batch=%g: %d latencies, %d queue waits, want %d", batch, len(paced.latency), len(paced.queueing()), tinySizes.paced)
		}
		for i, l := range paced.latency {
			if l <= 0 {
				t.Errorf("batch=%g: request %d has latency %v", batch, i, l)
				break
			}
		}

		// The traced pass recorded both kinds of spans and they read back.
		if traced.dropped != 0 {
			t.Errorf("batch=%g: tracer dropped %d records", batch, traced.dropped)
		}
		if traced.oracle.distCalls == 0 || traced.oracle.distNs == 0 {
			t.Errorf("batch=%g: timing oracle saw nothing: %+v", batch, traced.oracle)
		}
		var buf bytes.Buffer
		if err := writeTrace(&buf, traced.program, traced.spans); err != nil {
			t.Fatal(err)
		}
		tr, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("batch=%g: trace does not read back: %v", batch, err)
		}
		names := map[string]int{}
		for _, sp := range tr.Spans {
			names[sp.Stage]++
		}
		total := tinySizes.warmup + tinySizes.traced
		for _, n := range []string{spanNext, spanSubmit, spanSink, spanRequest} {
			if names[n] != total {
				t.Errorf("batch=%g: %d %s spans, want %d", batch, names[n], n, total)
			}
		}
		if names["phase1"] == 0 || names[spanDrain] != 1 {
			t.Errorf("batch=%g: span counts %v", batch, names)
		}
	}
}

// The layer probes run and give every layer a positive number.
func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("probes time real work")
	}
	pr, err := runProbes(tinyWorkload(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"fanin": pr.faninNs, "advance idle": pr.advanceIdleNs, "advance busy": pr.advanceBusyNs,
		"insert k0": pr.insertUs[0], "insert k2": pr.insertUs[2], "insert k4": pr.insertUs[4], "insert k6": pr.insertUs[6],
		"setloc": pr.setlocUs, "within": pr.withinNs, "candidates": pr.candidates,
		"update": pr.updateNs, "crossing": pr.crossingFrac, "search": pr.searchUs, "path": pr.pathUs,
	} {
		if !(v > 0) {
			t.Errorf("probe %s = %v, want > 0", name, v)
		}
	}
}

// BENCHMARK.json repeats the metric tables and workload list of this package;
// the driver reads the file, -compare and the README read the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the suite", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, suite has %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		if n := pacedCount(w, file.RunSeconds, suiteSizes.paced); n != suiteSizes.paced {
			t.Errorf("%s: run_seconds %d fits only %d of %d paced requests", w.Name, file.RunSeconds, n, suiteSizes.paced)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, table has %+v", i, f, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(file.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, table has %+v", i, f, d)
		}
		if seen[d.Name] {
			t.Errorf("%s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		for _, g := range w.Regime {
			if !seen[g.Metric] {
				t.Errorf("%s: regime guard on unknown metric %s", w.Name, g.Metric)
			}
		}
	}
}

func TestCompareSuites(t *testing.T) {
	values := func(scale float64) map[string]float64 {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.Name] = 100 * scale
		}
		return m
	}
	suite := func(e2e map[string]float64, failed int) *suiteResults {
		return &suiteResults{Seed: 1, N: 1500, Warmup: 300, Workloads: []*workloadResult{{
			Workload: "sharing_peak", Stack: stackRidesimMirror, OfferedRPS: 80, Digest: "ab",
			Correct: true, Failed: failed, EndToEnd: e2e,
		}}}
	}
	base := suite(values(1), 0)
	var out bytes.Buffer
	if !compareSuites(&out, base, suite(values(1), 0)) {
		t.Errorf("identical runs reported as a regression:\n%s", out.String())
	}

	// Each metric on its own: worse by half its bound passes, by one and a
	// half bounds is flagged, in the metric's own direction.
	for _, d := range endToEnd {
		sign := 1.0
		if d.Better == "higher" {
			sign = -1
		}
		inside, outside := values(1), values(1)
		inside[d.Name] = 100 * (1 + sign*0.5*d.Bound)
		outside[d.Name] = 100 * (1 + sign*1.5*d.Bound)
		out.Reset()
		if !compareSuites(&out, base, suite(inside, 0)) {
			t.Errorf("%s worse by half its bound reported as a regression:\n%s", d.Name, out.String())
		}
		out.Reset()
		if compareSuites(&out, base, suite(outside, 0)) {
			t.Errorf("%s worse by 1.5 bounds passed", d.Name)
		}
		if strings.Count(out.String(), "REGRESSION") != 1 {
			t.Errorf("%s: want exactly one metric flagged:\n%s", d.Name, out.String())
		}
		better := values(1)
		better[d.Name] = 100 * (1 - sign*0.5)
		if !compareSuites(&out, base, suite(better, 0)) {
			t.Errorf("%s improving by half reported as a regression", d.Name)
		}
	}

	if compareSuites(&out, base, suite(values(1), 1)) {
		t.Error("more failed operations passed")
	}
	otherSeed := suite(values(1), 0)
	otherSeed.Seed = 2
	if compareSuites(&out, base, otherSeed) {
		t.Error("different seeds compared as if comparable")
	}
	otherStack := suite(values(1), 0)
	otherStack.Workloads[0].Stack = stackEngineDefault
	if compareSuites(&out, base, otherStack) {
		t.Error("different stacks compared as if comparable")
	}
}
