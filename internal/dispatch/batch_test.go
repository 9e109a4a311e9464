package dispatch

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// greedyFlushTimes replicates the engine's batch-window bookkeeping
// (Enqueue clamping, boundary flushes, final Flush) and returns the flush
// instant each request is matched at. Stamping the stream with these times
// and replaying it through the naive reference matcher is the definitional
// greedy arrival-order pass the batch planner must reproduce.
func greedyFlushTimes(reqs []sim.Request, window float64) []float64 {
	out := make([]float64, len(reqs))
	clock, start := 0.0, 0.0
	var pending []int
	flush := func(t float64) {
		if t < clock {
			t = clock
		}
		clock = t
		for _, j := range pending {
			out[j] = t
		}
		pending = pending[:0]
	}
	arrived := make([]float64, len(reqs))
	for i := range reqs {
		rt := reqs[i].Time
		if rt < clock {
			rt = clock
		}
		arrived[i] = rt
		if len(pending) == 0 {
			start = rt
		} else if rt >= start+window {
			flush(start + window)
			start = rt
		}
		pending = append(pending, i)
	}
	final := clock
	for _, j := range pending {
		if arrived[j] > final {
			final = arrived[j]
		}
	}
	flush(final)
	return out
}

// stampTimes returns a copy of reqs with each request's time replaced by
// its flush instant.
func stampTimes(reqs []sim.Request, ft []float64) []sim.Request {
	out := make([]sim.Request, len(reqs))
	for i, r := range reqs {
		r.Time = ft[i]
		out[i] = r
	}
	return out
}

// TestBatchIncrementalRepairEquivalence: with incremental conflict repair,
// batch-mode assignments must stay bit-identical to the sequential greedy
// arrival-order pass (the reference matcher fed the flush-stamped stream)
// at 1/4/8 workers, the repair path must actually fire, and the
// repair metrics must be identical at every parallelism.
func TestBatchIncrementalRepairEquivalence(t *testing.T) {
	g, factory, reqs := testWorld(t, 120)
	const window = 60 // twelve requests per window at one per 5 s

	// Sequential greedy reference: every request matched at its window's
	// flush instant, in arrival order, against the live fleet.
	ft := greedyFlushTimes(reqs, window)
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Servers = 12 // scarce fleet so windows contend for the same vehicles
	want := newRefMatcher(t, cfg).assignments(stampTimes(reqs, ft))

	var conflicts, saved int
	for _, workers := range []int{1, 4, 8} {
		cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
		cfg.Servers = 12
		cfg.Workers = workers
		cfg.Shards = workers
		cfg.BatchWindow = window
		e, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			e.Enqueue(reqs[i])
		}
		e.Flush()
		for i, r := range reqs {
			veh, ok := e.Assignment(r.ID)
			if !ok {
				t.Fatalf("workers=%d: request %d never dispatched", workers, r.ID)
			}
			if veh != want[i] {
				t.Fatalf("workers=%d: request %d assigned to %d, sequential greedy chose %d",
					workers, i, veh, want[i])
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatalf("workers=%d: drain: %v", workers, err)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: invariants: %v", workers, err)
		}
		m := e.Metrics()
		if m.ConflictsRepaired == 0 {
			t.Fatalf("workers=%d: no conflicts repaired — the workload never exercised the repair path", workers)
		}
		if m.RetrialTrialsSaved <= 0 {
			t.Fatalf("workers=%d: RetrialTrialsSaved=%d, want > 0 (repair must beat full re-fan-out)",
				workers, m.RetrialTrialsSaved)
		}
		if workers == 1 {
			conflicts, saved = m.ConflictsRepaired, m.RetrialTrialsSaved
		} else if m.ConflictsRepaired != conflicts || m.RetrialTrialsSaved != saved {
			t.Fatalf("workers=%d: repair metrics diverge: %d/%d vs %d/%d at workers=1",
				workers, m.ConflictsRepaired, m.RetrialTrialsSaved, conflicts, saved)
		}
		e.Close()
	}
}

// TestEnqueueOutOfOrder: a request whose timestamp lags the engine clock
// must be clamped, as Submit does — otherwise it drags batchStart behind
// the clock after a flush and every subsequent window boundary is
// distorted (flushed early, splitting windows that should be whole).
func TestEnqueueOutOfOrder(t *testing.T) {
	g, factory, reqs := testWorld(t, 5)
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.BatchWindow = 30
	e, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Flush a first window to move the clock to 5.
	a := reqs[0]
	a.Time = 5
	e.Enqueue(a)
	e.Flush()
	if e.clock != 5 {
		t.Fatalf("clock=%v after flush, want 5", e.clock)
	}

	// A late-arriving timestamp from before the flush starts the next
	// window. Unclamped it would set batchStart=1 and make the window
	// [1, 31) even though no request can be matched before the clock.
	b := reqs[1]
	b.Time = 1
	e.Enqueue(b)
	if e.batchStart != 5 {
		t.Fatalf("batchStart=%v after stale enqueue, want clamp to clock 5", e.batchStart)
	}

	// 32 is inside the clamped window [5, 35) and must NOT trigger a
	// flush; with the unclamped start it would have been flushed at 31.
	c := reqs[2]
	c.Time = 32
	e.Enqueue(c)
	if e.Pending() != 2 {
		t.Fatalf("Pending=%d, want 2 (stale timestamp distorted the window boundary)", e.Pending())
	}

	// 35 crosses the boundary: the window flushes and both members resolve.
	d := reqs[3]
	d.Time = 35
	e.Enqueue(d)
	if e.Pending() != 1 {
		t.Fatalf("Pending=%d after boundary crossing, want 1", e.Pending())
	}
	if e.clock != 35 {
		t.Fatalf("clock=%v after boundary flush, want 35", e.clock)
	}
	for _, id := range []int64{b.ID, c.ID} {
		if _, ok := e.Assignment(id); !ok {
			t.Fatalf("request %d was not resolved by the boundary flush", id)
		}
	}
	e.Flush()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchACRTAttribution: batch mode must attribute search time per
// request the way immediate mode does — one ACRT sample per submitted
// request (its share of the phase-1 fan-out plus any repair retrial), not
// one sample per flush — so ACRT is comparable across the two modes.
func TestBatchACRTAttribution(t *testing.T) {
	g, factory, reqs := testWorld(t, 60)
	for _, window := range []float64{0, 30} {
		cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
		cfg.BatchWindow = window
		e, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run(reqs)
		if err != nil {
			t.Fatalf("window=%v: run: %v", window, err)
		}
		if m.Requests != len(reqs) {
			t.Fatalf("window=%v: Requests=%d, want %d", window, m.Requests, len(reqs))
		}
		if m.ACRTSamples != m.Requests {
			t.Fatalf("window=%v: ACRTSamples=%d, Requests=%d — search time not attributed per request",
				window, m.ACRTSamples, m.Requests)
		}
		if m.ACRT() <= 0 {
			t.Fatalf("window=%v: ACRT=%v, want > 0", window, m.ACRT())
		}
		e.Close()
	}
}

// longHaulWorld is a 120 km line city: one committed trip across it keeps
// a vehicle busy for ~2.4 drain rounds, long enough to outlive a
// one-round cap.
func longHaulWorld(t *testing.T) *roadnet.Graph {
	t.Helper()
	const n = 61
	b := roadnet.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetCoord(roadnet.VertexID(i), float64(i)*2000, 0)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(roadnet.VertexID(i), roadnet.VertexID(i+1), 2000)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDrainLongSchedule: a schedule that outlives the drain-round cap must
// surface an explicit truncation error (from Drain and CheckInvariants)
// instead of silently abandoning in-flight passengers, and the same
// schedule must run to completion under the default cap.
func TestDrainLongSchedule(t *testing.T) {
	line := longHaulWorld(t)
	factory := func() sp.Oracle {
		return cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(line) }, line.N()).NewWorker()
	}

	run := func(roundCap int) (*Engine, error) {
		cfg := sim.Config{
			Graph:     line,
			Oracle:    factory(),
			Servers:   1,
			Capacity:  4,
			Algorithm: sim.AlgoTreeSlack,
			Seed:      42,
		}
		e, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		e.drainRoundCap = roundCap

		// One trip from the vehicle's start to the far end of the line:
		// >50.4 km of driving, beyond one 3600 s round at 14 m/s.
		loc := sim.Placements(cfg)[0].Loc
		far := roadnet.VertexID(0)
		if line.EuclideanDist(loc, roadnet.VertexID(line.N()-1)) > line.EuclideanDist(loc, far) {
			far = roadnet.VertexID(line.N() - 1)
		}
		if matched, _ := e.Submit(sim.Request{ID: 1, Time: 0, Pickup: loc, Dropoff: far}); !matched {
			t.Fatal("long-haul request was not matched")
		}
		return e, e.Drain()
	}

	e, err := run(1)
	if err == nil {
		t.Fatal("Drain with a 1-round cap finished a >1-round schedule without error")
	}
	if !strings.Contains(err.Error(), "still busy") {
		t.Fatalf("truncation error %q does not name the stuck vehicles", err)
	}
	if cerr := e.CheckInvariants(); cerr == nil {
		t.Fatal("CheckInvariants did not surface the drain truncation")
	}
	e.Close()

	e, err = run(0) // default cap
	if err != nil {
		t.Fatalf("Drain under the default cap: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Completed != 1 {
		t.Fatalf("Completed=%d after full drain, want 1", m.Completed)
	}
	e.eachVehicle(func(v *sim.Vehicle) {
		if v.Busy() {
			t.Fatal("vehicle still busy after a clean drain")
		}
	})
	e.Close()
}
