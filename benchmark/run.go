package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// workloadResult is one workload's outcome: what results.json stores and
// -compare reads back.
type workloadResult struct {
	Workload   string  `json:"workload"`
	Stack      string  `json:"stack"`
	OfferedRPS float64 `json:"offered_rps"`
	Digest     string  `json:"assignment_digest"` // closed phase, hex
	RegimeOK   bool    `json:"regime_ok"`
	Saturated  bool    `json:"saturated"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	Violations int     `json:"violations"`
	// PacedSamples is the number of latencies the paced passes took, all
	// rounds together, and TailPercentile the one bench.latency_p99_ms was
	// taken at over them (the highest with ten samples beyond it).
	PacedSamples   int     `json:"paced_samples"`
	TailPercentile float64 `json:"tail_percentile"`

	Notes    []string           `json:"notes,omitempty"` // failed checks and guards, in words
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	traced *phaseResult // kept for the trace file; not serialized
}

// runOpts selects what one workload run does beyond the untraced rounds.
type runOpts struct {
	seed         int64
	sizes        streamSizes
	pacedSeconds int  // upper bound on the paced passes' length, all rounds together
	layers       bool // traced pass and probes, for the per-layer metrics
}

// pacedCount is how many requests each paced pass measures: the full count
// when the rounds' paced passes together fit into the allowed seconds at the
// workload's offered rate.
func pacedCount(w workloadSpec, seconds, most int) int {
	n := int(w.OfferedRPS * float64(seconds) / rounds)
	if n > most {
		n = most
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runWorkload runs the phases of one workload, checks the outputs and
// computes the metrics.
func runWorkload(w workloadSpec, o runOpts) (*workloadResult, error) {
	var phases []*phaseResult // in the order run; phases[0] is the first closed pass
	run := func(kind phaseKind, measured int) (*phaseResult, error) {
		p, err := runPhase(w, o.seed, kind, o.sizes.warmup, measured)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
		// Drop the pass's 300 MB stack before the next builds its own.
		runtime.GC()
		debug.FreeOSMemory()
		return p, nil
	}
	rs := make([]round, rounds)
	for i := range rs {
		var err error
		if rs[i].closed, err = run(phaseClosed, o.sizes.closed); err != nil {
			return nil, err
		}
		if rs[i].paced, err = run(phasePaced, pacedCount(w, o.pacedSeconds, o.sizes.paced)); err != nil {
			return nil, err
		}
	}
	var traced *phaseResult
	var probes probeResults
	if o.layers {
		var err error
		if traced, err = run(phaseTraced, o.sizes.traced); err != nil {
			return nil, err
		}
		if probes, err = runProbes(w, o.seed); err != nil {
			return nil, err
		}
	}

	closed := rs[0].closed
	res := &workloadResult{
		Workload: w.Name, Stack: closed.stackPath, OfferedRPS: w.OfferedRPS,
		Digest: fmt.Sprintf("%016x", assignmentDigest(closed.assign)),
		traced: traced,
	}
	for _, r := range rs {
		res.Saturated = res.Saturated || r.paced.saturated
		res.PacedSamples += len(r.paced.latency)
	}
	res.TailPercentile = tailPercentile(res.PacedSamples)
	setups := make([]time.Duration, len(phases))
	for i, p := range phases {
		setups[i] = p.setup
	}
	res.EndToEnd = endToEndValues(rs, setups)
	if o.layers {
		res.PerLayer = perLayerValues(w, rs, traced, probes, res.EndToEnd)
		res.RegimeOK = true
		for _, g := range w.Regime {
			if note := g.check(res.PerLayer); note != "" {
				res.RegimeOK = false
				res.Notes = append(res.Notes, "regime: "+note)
			}
		}
	}

	checkOutputs(res, phases)
	return res, nil
}

// checkOutputs verifies what the phases produced and fills in the result's
// correctness, attempted, failed and violation counts. A request the gateway
// shed or the engine never decided is a failed operation. A service-guarantee
// violation (a rider picked up or dropped off past the promised bound) is
// counted on its own: the engine at the defining commit produces one on a few
// percent of seeds in every sharing regime (README.md, "Known at baseline"),
// so it can neither be fatal nor be made to vanish by choosing workloads.
// Every other check is fatal to correctness. phases[0] is the closed phase,
// the reference the others' assignments are compared with.
func checkOutputs(res *workloadResult, phases []*phaseResult) {
	res.Correct = true
	fail := func(format string, args ...any) {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
	}
	closed := phases[0]
	for _, p := range phases {
		total := p.warmup + p.measured
		m := p.final
		if m.Requests != total {
			fail("%s: engine saw %d requests, want %d", p.kind, m.Requests, total)
		}
		if m.Matched+m.Rejected != m.Requests {
			fail("%s: matched %d + rejected %d != requests %d", p.kind, m.Matched, m.Rejected, m.Requests)
		}
		if p.invariantErr != nil {
			fail("%s: %v", p.kind, p.invariantErr)
		}
		undecided := 0
		for _, v := range p.assign {
			if v == -2 {
				undecided++
			}
		}
		res.Attempted += total
		res.Violations += m.Violations
		res.Failed += undecided + p.gateway.Shed()
		if undecided > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d requests left without a decision", p.kind, undecided))
		}
		if m.Violations > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d service-guarantee violations", p.kind, m.Violations))
		}
		if at := firstDifference(closed, p); at >= 0 {
			fail("%s: assignment of request %d differs from the closed phase (vehicle %d vs %d)",
				p.kind, at, p.assign[at], closed.assign[at])
		}
	}
	if closed.oracleErr != nil {
		fail("oracle: %v", closed.oracleErr)
	}
}

// firstDifference compares two phases' assignments over the prefix both
// decided independently of where their streams were cut, and returns the
// first request index that differs, or -1.
func firstDifference(a, b *phaseResult) int {
	n := a.comparable
	if b.comparable < n {
		n = b.comparable
	}
	for i := 0; i < n; i++ {
		if a.assign[i] != b.assign[i] {
			return i
		}
	}
	return -1
}

// oracleCheckPairs is how many vertex pairs the oracle check samples.
const oracleCheckPairs = 200

// checkOracle compares the assembled oracle stack, caches warm from the run,
// against plain Dijkstra on sampled vertex pairs. Distances must agree to
// 1e-9 relative: the stack may cache and search differently, never answer
// differently.
func checkOracle(g *roadnet.Graph, oracle sp.Oracle, seed int64) error {
	ref := sp.NewDijkstra(g)
	rng := rand.New(rand.NewSource(seed))
	n := int32(g.N())
	for i := 0; i < oracleCheckPairs; i++ {
		u, v := roadnet.VertexID(rng.Int31n(n)), roadnet.VertexID(rng.Int31n(n))
		got, want := oracle.Dist(u, v), ref.Dist(u, v)
		if got == want { // covers +Inf on both sides
			continue
		}
		if math.Abs(got-want) > 1e-9*math.Max(math.Abs(want), 1) {
			return fmt.Errorf("dist(%d,%d) = %v, Dijkstra says %v", u, v, got, want)
		}
	}
	return nil
}
