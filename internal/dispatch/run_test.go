package dispatch

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// newEngine builds a default (one worker, one shard, inline) engine over
// cfg, closed when the test ends.
func newEngine(t *testing.T, cfg sim.Config) *Engine {
	t.Helper()
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// runEngine replays reqs through a default engine over cfg and checks the
// invariants.
func runEngine(t *testing.T, cfg sim.Config, reqs []sim.Request) *sim.Metrics {
	t.Helper()
	e := newEngine(t, cfg)
	m, err := e.Run(reqs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return m
}

// TestSimulationAllAlgorithms runs the same workload through every
// kinetic-tree variant and checks the service-guarantee invariants hold
// throughout.
func TestSimulationAllAlgorithms(t *testing.T) {
	g, factory, reqs := testWorld(t, 120)
	for _, algo := range []sim.Algorithm{sim.AlgoTreeBasic, sim.AlgoTreeSlack, sim.AlgoTreeHotspot} {
		t.Run(algo.String(), func(t *testing.T) {
			m := runEngine(t, baseConfig(g, factory, algo), reqs)
			if m.Requests != len(reqs) {
				t.Fatalf("requests: got %d want %d", m.Requests, len(reqs))
			}
			if m.Matched+m.Rejected != m.Requests {
				t.Fatalf("matched %d + rejected %d != requests %d", m.Matched, m.Rejected, m.Requests)
			}
			if m.Matched == 0 {
				t.Fatal("no request matched — workload or dispatch broken")
			}
			if m.Completed != m.Matched {
				t.Fatalf("completed %d != matched %d after drain", m.Completed, m.Matched)
			}
			if m.Violations != 0 {
				t.Fatalf("%d service violations", m.Violations)
			}
			t.Logf("%s: %s", algo, m)
		})
	}
}

// TestSimulationDeterminism checks that the same seed and workload give
// identical outcomes.
func TestSimulationDeterminism(t *testing.T) {
	g, factory, reqs := testWorld(t, 60)
	run := func() *sim.Metrics {
		cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
		cfg.Servers, cfg.Seed = 15, 9
		return runEngine(t, cfg, reqs)
	}
	a, b := run(), run()
	if a.Matched != b.Matched || a.Rejected != b.Rejected || a.Completed != b.Completed {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	if a.TotalRideMeters != b.TotalRideMeters {
		t.Fatalf("nondeterministic ride meters: %f vs %f", a.TotalRideMeters, b.TotalRideMeters)
	}
}

// TestMatchRateComparable checks the tree and an exhaustive algorithm accept
// the same requests: replaying a slack-tree run's captured instances through
// branch-and-bound must find a feasible schedule for exactly the requests
// the tree matched, since both solve the identical scheduling problem.
func TestMatchRateComparable(t *testing.T) {
	g, factory, reqs := testWorld(t, 100)
	var insts []*core.Instance
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Servers, cfg.Seed = 20, 11
	cfg.Capture = func(in *core.Instance) { insts = append(insts, in) }
	tree := runEngine(t, cfg, reqs).Matched
	bb := 0
	for _, cs := range branchBoundCosts(factory(), insts) {
		if cs[0] < math.Inf(1) {
			bb++
		}
	}
	if tree == 0 || bb == 0 {
		t.Fatalf("zero match rate: tree=%d bb=%d", tree, bb)
	}
	if tree != bb {
		t.Fatalf("match rates diverge: tree=%d bb=%d of %d", tree, bb, len(reqs))
	}
}

// TestCaptureObservesOnly: sim.Config.Capture only observes. At one worker a
// captured run makes the same assignments and the same metrics as an
// uncaptured one, and it captures one instance per trial whose trip state
// builds — every trial here, the world being connected — each ending in the
// submitting request's trip.
func TestCaptureObservesOnly(t *testing.T) {
	g, factory, reqs := testWorld(t, 120)
	var insts []*core.Instance
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Capture = func(in *core.Instance) { insts = append(insts, in) }
	captured := newEngine(t, cfg)
	plain := newEngine(t, baseConfig(g, factory, sim.AlgoTreeSlack))
	for _, r := range reqs {
		if cfg.Oracle.Dist(r.Pickup, r.Dropoff) == sp.Inf {
			t.Fatalf("request %d: dropoff unreachable; the test needs every trip state to build", r.ID)
		}
		before := len(insts)
		cm, cveh := captured.Submit(r)
		pm, pveh := plain.Submit(r)
		if cm != pm || cveh != pveh {
			t.Fatalf("request %d: captured run gave (%v, %d), plain run (%v, %d)", r.ID, cm, cveh, pm, pveh)
		}
		for _, in := range insts[before:] {
			if last := in.Trips[len(in.Trips)-1].ID; last != r.ID {
				t.Fatalf("request %d captured an instance whose last trip is %d", r.ID, last)
			}
		}
	}
	for _, e := range []*Engine{captured, plain} {
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	compareMetrics(t, "capture", plain.Metrics(), captured.Metrics())
	if m := captured.Metrics(); len(insts) != m.TrialCalls || len(insts) == 0 {
		t.Fatalf("captured %d instances over %d trials", len(insts), m.TrialCalls)
	}
}

// loneVehicle returns a one-vehicle config with the given fleet waiting
// budget, plus a pickup/dropoff pair whose pickup lies between lo and hi
// network meters from that vehicle (ok=false if the graph has none).
func loneVehicle(t *testing.T, waitSeconds, lo, hi float64) (cfg sim.Config, pickup, dropoff roadnet.VertexID, ok bool) {
	t.Helper()
	g, factory, _ := testWorld(t, 1)
	cfg = baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Servers, cfg.Seed, cfg.WaitSeconds = 1, 3, waitSeconds
	loc := sim.Placements(cfg)[0].Loc
	for d := 0; d < g.N(); d++ {
		if dd := cfg.Oracle.Dist(loc, roadnet.VertexID(d)); dd > lo && dd < hi {
			ts, _ := g.Neighbors(roadnet.VertexID(d))
			return cfg, roadnet.VertexID(d), ts[0], true
		}
	}
	return cfg, 0, 0, false
}

// TestRejectedWhenNoServerInRange: a request far from the only (pinned)
// vehicle must be rejected.
func TestRejectedWhenNoServerInRange(t *testing.T) {
	// 30 s is 420 m of waiting budget; the pickup is over 2 km away.
	cfg, far, drop, ok := loneVehicle(t, 30, 2000, math.Inf(1))
	if !ok {
		t.Skip("graph too small")
	}
	e := newEngine(t, cfg)
	if matched, _ := e.Submit(sim.Request{ID: 1, Time: 0.1, Pickup: far, Dropoff: drop}); matched {
		t.Fatal("matched a request outside every server's waiting range")
	}
	if m := e.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected=%d", m.Rejected)
	}
	if veh, dispatched := e.Assignment(1); !dispatched || veh != -1 {
		t.Fatalf("Assignment(1) = (%d, %v), want (-1, true)", veh, dispatched)
	}
}

// TestIndividualizedConstraints: a request with a personal waiting budget
// larger than the fleet default can be matched where the default could not.
func TestIndividualizedConstraints(t *testing.T) {
	// Tight fleet default: 60 s is 840 m.
	cfg, far, drop, ok := loneVehicle(t, 60, 2000, 5000)
	if !ok {
		t.Skip("graph too small")
	}
	if matched, _ := newEngine(t, cfg).Submit(sim.Request{ID: 1, Time: 0.1, Pickup: far, Dropoff: drop}); matched {
		t.Fatal("default budget should not reach the far pickup")
	}
	e := newEngine(t, cfg)
	matched, _ := e.Submit(sim.Request{
		ID: 1, Time: 0.1, Pickup: far, Dropoff: drop,
		WaitSeconds: 900, // 12.6 km personal budget
	})
	if !matched {
		t.Fatal("personal waiting budget should make the far pickup reachable")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Violations != 0 {
		t.Fatalf("violations=%d with individualized constraint", m.Violations)
	}
}

// TestTuningSurfaced: the capacity parameters the engine resolved at
// construction — explicit values beating derivation — surface in Metrics.
func TestTuningSurfaced(t *testing.T) {
	g, factory, _ := testWorld(t, 1)
	for _, tc := range []struct {
		name      string
		tune      func(*sim.Config)
		cell      float64
		shards    int
		wantTuned bool
	}{
		{"explicit", func(c *sim.Config) { c.AutoTune, c.CellSize, c.Shards = true, 123, 2 }, 123, 2, true},
		{"derived", func(c *sim.Config) { c.AutoTune = true }, sim.DeriveCellSize(g, 25), sim.DeriveShards(25, 1), true},
		{"off", func(c *sim.Config) {}, sim.DefaultCellSize, 1, false},
	} {
		cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
		tc.tune(&cfg)
		e, err := New(cfg, factory)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := e.Metrics()
		if m.TunedCellSize != tc.cell || m.TunedShards != tc.shards || m.AutoTuned != tc.wantTuned {
			t.Errorf("%s: tuning cell=%v shards=%d auto=%v, want %v/%d/%v",
				tc.name, m.TunedCellSize, m.TunedShards, m.AutoTuned, tc.cell, tc.shards, tc.wantTuned)
		}
		e.Close()
	}
}

// TestDrainTwice: Drain is re-callable, so a second call must rebuild the
// per-vehicle occupancy histogram instead of appending another fleet's
// worth of samples to it.
func TestDrainTwice(t *testing.T) {
	g, factory, reqs := testWorld(t, 60)
	cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
	cfg.Workers, cfg.Shards = 2, 3
	e, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	max, mean, top := m.OccupancyStats()
	if max == 0 {
		t.Fatal("nobody rode — workload broken")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	m2 := e.Metrics()
	if got := m2.Occupancy.Count(); got != uint64(cfg.Servers) {
		t.Fatalf("Occupancy.Count()=%d after a second Drain, want one sample per vehicle (%d)", got, cfg.Servers)
	}
	if max2, mean2, top2 := m2.OccupancyStats(); max2 != max || mean2 != mean || top2 != top {
		t.Fatalf("occupancy stats changed across a repeated Drain: %d/%v/%v -> %d/%v/%v", max, mean, top, max2, mean2, top2)
	}
}
