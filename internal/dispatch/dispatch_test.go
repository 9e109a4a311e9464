package dispatch

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// testWorld builds a small city, a per-caller oracle factory, and a
// deterministic request stream (one request every 5 simulated seconds).
func testWorld(t testing.TB, trips int) (*roadnet.Graph, OracleFactory, []sim.Request) {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 20, Cols: 20, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, DropFrac: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	factory := func() sp.Oracle {
		return cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N()).NewWorker()
	}
	reqs := make([]sim.Request, 0, trips)
	nv := int32(g.N())
	state := int64(12345) // LCG, stable across Go versions
	next := func(mod int32) int32 {
		state = state*6364136223846793005 + 1442695040888963407
		v := int32((state >> 33) % int64(mod))
		if v < 0 {
			v += mod
		}
		return v
	}
	for len(reqs) < trips {
		s := roadnet.VertexID(next(nv))
		e := roadnet.VertexID(next(nv))
		if s == e || g.EuclideanDist(s, e) < 800 {
			continue
		}
		reqs = append(reqs, sim.Request{
			ID:      int64(len(reqs)),
			Time:    float64(len(reqs)) * 5,
			Pickup:  s,
			Dropoff: e,
		})
	}
	return g, factory, reqs
}

func baseConfig(g *roadnet.Graph, factory OracleFactory, algo sim.Algorithm) sim.Config {
	return sim.Config{
		Graph:     g,
		Oracle:    factory(),
		Servers:   25,
		Capacity:  4,
		Algorithm: algo,
		Seed:      42,
	}
}

func compareMetrics(t *testing.T, label string, seq, got *sim.Metrics) {
	t.Helper()
	if seq.Requests != got.Requests || seq.Matched != got.Matched || seq.Rejected != got.Rejected {
		t.Errorf("%s: counts diverge: seq req/match/rej=%d/%d/%d got %d/%d/%d",
			label, seq.Requests, seq.Matched, seq.Rejected, got.Requests, got.Matched, got.Rejected)
	}
	if seq.Completed != got.Completed || seq.Violations != got.Violations {
		t.Errorf("%s: completed/violations diverge: seq %d/%d got %d/%d",
			label, seq.Completed, seq.Violations, got.Completed, got.Violations)
	}
	if seq.TrialCalls != got.TrialCalls || seq.TrialFailures != got.TrialFailures || seq.OverBudget != got.OverBudget {
		t.Errorf("%s: trial counters diverge: seq %d/%d/%d got %d/%d/%d",
			label, seq.TrialCalls, seq.TrialFailures, seq.OverBudget, got.TrialCalls, got.TrialFailures, got.OverBudget)
	}
	if seq.TreeNodesMax != got.TreeNodesMax {
		t.Errorf("%s: TreeNodesMax %d vs %d", label, seq.TreeNodesMax, got.TreeNodesMax)
	}
	if !seq.Occupancy.Equal(got.Occupancy) {
		t.Errorf("%s: occupancy distributions diverge: seq %v got %v",
			label, seq.Occupancy, got.Occupancy)
	}
	// Match-latency values are wall times and differ from run to run, but
	// every run records exactly one sample per request.
	if seq.MatchLatency.Count() != got.MatchLatency.Count() {
		t.Errorf("%s: match-latency sample counts diverge: seq %d got %d",
			label, seq.MatchLatency.Count(), got.MatchLatency.Count())
	}
	for _, f := range []struct {
		name     string
		seq, got float64
	}{
		{"TotalWaitMeters", seq.TotalWaitMeters, got.TotalWaitMeters},
		{"TotalRideMeters", seq.TotalRideMeters, got.TotalRideMeters},
		{"TotalShortestLen", seq.TotalShortestLen, got.TotalShortestLen},
		{"TotalVehicleMeters", seq.TotalVehicleMeters, got.TotalVehicleMeters},
	} {
		// Distances lie on the 1/256 m grid, so totals are exact in any
		// summation order and at any shard count.
		if f.seq != f.got {
			t.Errorf("%s: %s diverges: %v vs %v", label, f.name, f.seq, f.got)
		}
	}
}

// TestSequentialEquivalence: for a fixed seed, the engine must produce the
// identical per-request vehicle assignments and metrics as the naive
// reference matcher (reference_test.go), at every worker/shard
// combination. The branchbound case also captures every trial's instance
// (sim.Config.Capture) and replays them through core.BranchBound: the
// baseline's per-request results must not depend on the worker/shard
// layout either, so the replayed figures in internal/exp do not.
func TestSequentialEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		algo   sim.Algorithm
		trips  int
		replay bool
	}{
		{sim.AlgoTreeSlack.String(), sim.AlgoTreeSlack, 120, false},
		{"branchbound", sim.AlgoTreeSlack, 60, true},
	}
	grids := []struct{ workers, shards int }{
		{1, 1}, {4, 4}, {8, 8}, {2, 5}, {4, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, factory, reqs := testWorld(t, tc.trips)

			var seqInsts captured
			cfg := baseConfig(g, factory, tc.algo)
			if tc.replay {
				cfg.Capture = seqInsts.add
			}
			seq := newRefMatcher(t, cfg)
			want := seq.assignments(reqs)
			seq.Drain()
			if err := seq.CheckInvariants(); err != nil {
				t.Fatalf("reference invariants: %v", err)
			}
			wantBB := branchBoundCosts(factory(), seqInsts.insts)

			for _, wc := range grids {
				var insts captured
				cfg := baseConfig(g, factory, tc.algo)
				cfg.Workers = wc.workers
				cfg.Shards = wc.shards
				if tc.replay {
					cfg.Capture = insts.add
				}
				e, err := New(cfg, factory)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range reqs {
					matched, veh := e.Submit(r)
					if !matched {
						veh = -1
					}
					if veh != want[i] {
						t.Fatalf("workers=%d shards=%d: request %d assigned to %d, reference chose %d",
							wc.workers, wc.shards, i, veh, want[i])
					}
				}
				e.Drain()
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("workers=%d shards=%d: invariants: %v", wc.workers, wc.shards, err)
				}
				compareMetrics(t, algoLabel(tc.algo, wc.workers, wc.shards), seq.metrics, e.Metrics())
				e.Close()
				if !tc.replay {
					continue
				}
				got := branchBoundCosts(factory(), insts.insts)
				if len(got) != len(wantBB) || len(got) == 0 {
					t.Fatalf("workers=%d shards=%d: %d requests captured, reference %d", wc.workers, wc.shards, len(got), len(wantBB))
				}
				for id, ws := range wantBB {
					if gs := got[id]; !slices.Equal(gs, ws) {
						t.Fatalf("workers=%d shards=%d: request %d replays to branchbound costs %v, reference %v",
							wc.workers, wc.shards, id, gs, ws)
					}
				}
			}
		})
	}
}

// captured collects sim.Config.Capture instances; Capture runs on the
// trialing goroutine, so add is safe to call from several workers.
type captured struct {
	mu    sync.Mutex
	insts []*core.Instance
}

func (c *captured) add(in *core.Instance) {
	c.mu.Lock()
	c.insts = append(c.insts, in)
	c.mu.Unlock()
}

// branchBoundCosts schedules every captured instance with core.BranchBound
// and returns, per submitting request (the instance's last trip), the
// ascending optimal costs, +Inf where the instance is infeasible.
func branchBoundCosts(o sp.Oracle, insts []*core.Instance) map[int64][]float64 {
	bb := core.NewBranchBound(o)
	out := map[int64][]float64{}
	for _, in := range insts {
		c := math.Inf(1)
		if res := bb.Schedule(in); res.OK {
			c = res.Cost
		}
		id := in.Trips[len(in.Trips)-1].ID
		out[id] = append(out[id], c)
	}
	for _, cs := range out {
		slices.Sort(cs)
	}
	return out
}

func algoLabel(a sim.Algorithm, workers, shards int) string {
	return a.String() + "/w" + string(rune('0'+workers)) + "s" + string(rune('0'+shards))
}

// TestSharedCacheEquivalence: assignments must be bit-identical whether the
// shards run cold private caches (OracleFactory) or one fleet-wide shared
// distance cache (cache.Shared via cfg.Oracle), at 1/4/8 workers — exact
// distances do not depend on which cache served them. The shared
// configuration must also report an aggregate hit rate at least as high as
// the per-shard one on the multi-shard runs.
func TestSharedCacheEquivalence(t *testing.T) {
	g, factory, reqs := testWorld(t, 120)

	run := func(workers int, shared bool) ([]int, *sim.Metrics) {
		cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
		cfg.Workers = workers
		cfg.Shards = workers
		var e *Engine
		var err error
		if shared {
			cfg.Oracle = cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())
			e, err = New(cfg, nil)
		} else {
			e, err = New(cfg, factory)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		got := make([]int, len(reqs))
		for i, r := range reqs {
			matched, veh := e.Submit(r)
			if !matched {
				veh = -1
			}
			got[i] = veh
		}
		e.Drain()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d shared=%v: invariants: %v", workers, shared, err)
		}
		return got, e.Metrics()
	}

	want, _ := run(1, false)
	for _, workers := range []int{1, 4, 8} {
		perShard, pm := run(workers, false)
		sharedGot, sm := run(workers, true)
		for i := range want {
			if perShard[i] != want[i] {
				t.Fatalf("workers=%d per-shard: request %d assigned to %d, baseline chose %d",
					workers, i, perShard[i], want[i])
			}
			if sharedGot[i] != want[i] {
				t.Fatalf("workers=%d shared-cache: request %d assigned to %d, baseline chose %d",
					workers, i, sharedGot[i], want[i])
			}
		}
		if sm.DistCacheHits+sm.DistCacheMisses == 0 {
			t.Fatalf("workers=%d: shared run reported no distance-cache traffic", workers)
		}
		if workers > 1 && sm.DistCacheHitRate() < pm.DistCacheHitRate() {
			t.Errorf("workers=%d: shared hit rate %.4f below per-shard %.4f",
				workers, sm.DistCacheHitRate(), pm.DistCacheHitRate())
		}
	}
}

// TestBatchDeterminismAcrossWorkers: batch-window matching is defined by a
// deterministic greedy pass, so assignments must be identical at every
// worker/shard count.
func TestBatchDeterminismAcrossWorkers(t *testing.T) {
	g, factory, reqs := testWorld(t, 100)
	run := func(workers, shards int) (map[int64]int, *sim.Metrics) {
		cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
		cfg.Workers = workers
		cfg.Shards = shards
		cfg.BatchWindow = 30 // six requests per window at one per 5s
		e, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		m, err := e.Run(reqs)
		if err != nil {
			t.Fatalf("workers=%d: run: %v", workers, err)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: invariants: %v", workers, err)
		}
		got := make(map[int64]int, len(reqs))
		for _, r := range reqs {
			veh, ok := e.Assignment(r.ID)
			if !ok {
				t.Fatalf("workers=%d: request %d never dispatched", workers, r.ID)
			}
			got[r.ID] = veh
		}
		return got, m
	}
	wantAssign, wantMetrics := run(1, 1)
	if wantMetrics.Matched == 0 {
		t.Fatal("batch run matched nothing — workload broken")
	}
	for _, wc := range []struct{ workers, shards int }{{4, 4}, {8, 3}} {
		gotAssign, gotMetrics := run(wc.workers, wc.shards)
		for id, want := range wantAssign {
			if gotAssign[id] != want {
				t.Fatalf("workers=%d shards=%d: request %d assigned to %d, baseline chose %d",
					wc.workers, wc.shards, id, gotAssign[id], want)
			}
		}
		if wantMetrics.Matched != gotMetrics.Matched || wantMetrics.Rejected != gotMetrics.Rejected ||
			wantMetrics.Completed != gotMetrics.Completed || wantMetrics.Violations != gotMetrics.Violations {
			t.Fatalf("workers=%d shards=%d: batch metrics diverge: %v vs %v",
				wc.workers, wc.shards, wantMetrics, gotMetrics)
		}
	}
}

// TestBatchConflictResolution: two requests in one window contending for
// the same (only) vehicle — the earlier one wins it outright, the later one
// must be resolved against the post-commit state, not its stale phase-1
// trial.
func TestBatchConflictResolution(t *testing.T) {
	g, factory, _ := testWorld(t, 1)
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Servers = 1
	cfg.Workers = 2
	cfg.Shards = 1
	cfg.BatchWindow = 60
	e, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Place both trips near the vehicle so both are individually feasible.
	loc := sim.Placements(cfg)[0].Loc
	oracle := factory()
	var a, b roadnet.VertexID = -1, -1
	for d := 0; d < g.N(); d++ {
		dd := oracle.Dist(loc, roadnet.VertexID(d))
		if dd > 1200 && dd < 3000 {
			if a < 0 {
				a = roadnet.VertexID(d)
			} else if roadnet.VertexID(d) != a {
				b = roadnet.VertexID(d)
				break
			}
		}
	}
	if a < 0 || b < 0 {
		t.Skip("graph too small to stage the conflict")
	}
	e.Enqueue(sim.Request{ID: 1, Time: 1, Pickup: loc, Dropoff: a})
	e.Enqueue(sim.Request{ID: 2, Time: 2, Pickup: loc, Dropoff: b})
	e.Flush()
	if veh, ok := e.Assignment(1); !ok || veh != 0 {
		t.Fatalf("first request should win the only vehicle, got (%d, %v)", veh, ok)
	}
	if _, ok := e.Assignment(2); !ok {
		t.Fatal("second request was never resolved")
	}
	m := e.Metrics()
	if m.Requests != 2 {
		t.Fatalf("Requests=%d, want 2", m.Requests)
	}
	e.Drain()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestCancel: a request cancelled inside its batch window is never
// dispatched; one already flushed cannot be cancelled.
func TestCancel(t *testing.T) {
	g, factory, reqs := testWorld(t, 3)
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Workers = 2
	cfg.Shards = 2
	cfg.BatchWindow = 1000
	e, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.Enqueue(reqs[0])
	e.Enqueue(reqs[1])
	if e.Pending() != 2 {
		t.Fatalf("Pending=%d, want 2", e.Pending())
	}
	if !e.Cancel(reqs[0].ID) {
		t.Fatal("cancel of a pending request failed")
	}
	if e.Cancel(reqs[0].ID) {
		t.Fatal("double cancel succeeded")
	}
	if e.Cancel(999) {
		t.Fatal("cancel of an unknown request succeeded")
	}
	e.Flush()
	if e.Pending() != 0 {
		t.Fatalf("Pending=%d after flush", e.Pending())
	}
	if _, ok := e.Assignment(reqs[0].ID); ok {
		t.Fatal("cancelled request was dispatched")
	}
	if _, ok := e.Assignment(reqs[1].ID); !ok {
		t.Fatal("surviving request was not dispatched")
	}
	if e.Cancel(reqs[1].ID) {
		t.Fatal("cancelled a request that was already flushed")
	}
	if m := e.Metrics(); m.Requests != 1 {
		t.Fatalf("Requests=%d, want 1 (cancelled requests are never submitted)", m.Requests)
	}
}

// TestNewValidation covers the constructor's misuse errors.
func TestNewValidation(t *testing.T) {
	g, factory, _ := testWorld(t, 1)
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Workers = 4
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("multi-worker engine without an OracleFactory must be rejected")
	}
	cfg.Workers = 1
	cfg.Oracle = nil
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("engine without any oracle must be rejected")
	}
	cfg.Servers = 0
	if _, err := New(cfg, factory); err == nil {
		t.Fatal("zero servers must be rejected")
	}
	bad := cfg
	bad.Graph = nil
	if _, err := New(bad, factory); err == nil {
		t.Fatal("missing graph must be rejected")
	}
	bad = baseConfig(g, factory, sim.Algorithm(9))
	if _, err := New(bad, factory); err == nil || !strings.Contains(err.Error(), "Algorithm(9)") {
		t.Fatalf("an algorithm outside the tree variants must be rejected by name, got %v", err)
	}
}

// TestShardsClampedToFleet: more shards than vehicles must not create empty
// shards that break the global-ID arithmetic.
func TestShardsClampedToFleet(t *testing.T) {
	g, factory, reqs := testWorld(t, 10)
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Servers = 3
	cfg.Workers = 4
	cfg.Shards = 16
	e, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() != 3 {
		t.Fatalf("Shards=%d, want clamp to 3", e.Shards())
	}
	if _, err := e.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchTracedEquivalence: the batch planner's instrumentation (stage
// timers, live counters, matched/rejected trace events) records but never
// branches, so a traced batch run must assign identically to the untraced
// one — and the stage histograms must actually have been fed.
func TestBatchTracedEquivalence(t *testing.T) {
	g, factory, reqs := testWorld(t, 100)
	run := func(tracer *obs.Tracer, live *obs.Live) (map[int64]int, *sim.Metrics) {
		cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
		cfg.Workers = 4
		cfg.Shards = 4
		cfg.BatchWindow = 30
		cfg.Trace = tracer
		cfg.Live = live
		e, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		m, err := e.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]int, len(reqs))
		for _, r := range reqs {
			veh, ok := e.Assignment(r.ID)
			if !ok {
				t.Fatalf("request %d never dispatched", r.ID)
			}
			got[r.ID] = veh
		}
		return got, m
	}

	want, _ := run(nil, nil)
	tracer := obs.NewTracer(1 << 16)
	live := &obs.Live{}
	got, m := run(tracer, live)
	for id, veh := range want {
		if got[id] != veh {
			t.Fatalf("request %d assigned to %d traced, %d untraced", id, got[id], veh)
		}
	}

	// Stage timers: one flush-latency and one phase-1 sample per flush, and
	// per-flush phase-1 time can never exceed the whole flush's.
	if m.FlushLatency.Count() == 0 {
		t.Fatal("no flush-latency samples after a batch run")
	}
	if m.Phase1Latency.Count() != m.FlushLatency.Count() {
		t.Fatalf("phase1 samples %d != flush samples %d",
			m.Phase1Latency.Count(), m.FlushLatency.Count())
	}
	if m.Phase1Latency.Sum() > m.FlushLatency.Sum() {
		t.Fatalf("phase-1 time %d ns exceeds total flush time %d ns",
			m.Phase1Latency.Sum(), m.FlushLatency.Sum())
	}
	if uint64(m.ConflictsRepaired) != m.RepairLatency.Count() {
		t.Fatalf("%d conflicts repaired but %d repair-latency samples",
			m.ConflictsRepaired, m.RepairLatency.Count())
	}

	// Live counters match the final metrics.
	if live.Load(obs.Requests) != int64(m.Requests) || live.Load(obs.Matched) != int64(m.Matched) ||
		live.Load(obs.Rejected) != int64(m.Rejected) || live.Load(obs.Conflicts) != int64(m.ConflictsRepaired) {
		t.Fatalf("live %+v diverges from metrics req=%d matched=%d rejected=%d conflicts=%d",
			live.Snapshot(nil), m.Requests, m.Matched, m.Rejected, m.ConflictsRepaired)
	}
	if uint64(live.Load(obs.Flushes)) != m.FlushLatency.Count() {
		t.Fatalf("live flushes %d != flush samples %d", live.Load(obs.Flushes), m.FlushLatency.Count())
	}

	// The trace resolved every request exactly once.
	events := 0
	var buf bytes.Buffer
	written, dropped, err := tracer.Drain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("%d events dropped with oversized rings", dropped)
	}
	resolved := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		events++
		if ev.Event == "matched" || ev.Event == "rejected" {
			resolved++
		}
	}
	if resolved != len(reqs) {
		t.Fatalf("%d matched/rejected events, want %d", resolved, len(reqs))
	}
	if written != events {
		t.Fatalf("written=%d but read %d lines", written, events)
	}
}
