package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// splitWorld is a two-component graph: vertices {0,1} and {2,3} are each
// connected internally but unreachable from one another, while all four sit
// within a few hundred meters so the Euclidean pre-filter never skips a
// trial.
func splitWorld(t *testing.T) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(4)
	b.SetCoord(0, 0, 0)
	b.SetCoord(1, 300, 0)
	b.SetCoord(2, 0, 300)
	b.SetCoord(3, 300, 300)
	b.AddEdge(0, 1, 300)
	b.AddEdge(2, 3, 300)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTrialFailureCountingUnreachable: a trial whose dropoff is unreachable
// from the pickup (NewTripState error) must count as a TrialFailure like
// every other infeasible path, for the basic and the slack tree alike. Only
// the trial whose trip state builds reaches Config.Capture, as an instance
// ending in the request's trip.
func TestTrialFailureCountingUnreachable(t *testing.T) {
	g := splitWorld(t)
	for _, algo := range []Algorithm{AlgoTreeBasic, AlgoTreeSlack} {
		var captured []*core.Instance
		cfg := Config{Graph: g, Oracle: sp.NewDijkstra(g), Servers: 1, Capacity: 4, Algorithm: algo, Seed: 1,
			Capture: func(in *core.Instance) { captured = append(captured, in) }}
		m := NewMetrics()
		w := NewWorker(cfg, cfg.Oracle, m)
		v := w.NewVehicle(0, 0)

		// Pickup in the vehicle's component, dropoff in the other.
		req := Request{ID: 1, Time: 0, Pickup: 1, Dropoff: 2}
		waitMeters, eps := w.Budget(req)
		px, py := g.Coord(req.Pickup)
		if _, ok := w.Trial(v, req, px, py, waitMeters, eps); ok {
			t.Fatalf("%s: trial with unreachable dropoff succeeded", algo)
		}
		if m.TrialCalls != 1 {
			t.Fatalf("%s: TrialCalls=%d, want 1", algo, m.TrialCalls)
		}
		if m.TrialFailures != 1 {
			t.Fatalf("%s: TrialFailures=%d, want 1 — unreachable dropoff not counted as a failure", algo, m.TrialFailures)
		}

		// A reachable trip on the same vehicle still succeeds and does not
		// add a failure.
		req = Request{ID: 2, Time: 0, Pickup: 0, Dropoff: 1}
		px, py = g.Coord(req.Pickup)
		if _, ok := w.Trial(v, req, px, py, waitMeters, eps); !ok {
			t.Fatalf("%s: feasible trial failed", algo)
		}
		if m.TrialFailures != 1 {
			t.Fatalf("%s: TrialFailures=%d after a feasible trial, want 1", algo, m.TrialFailures)
		}
		if len(captured) != 1 {
			t.Fatalf("%s: captured %d instances, want 1 (the reachable trial only)", algo, len(captured))
		}
		if in := captured[0]; in.Origin != v.Loc() || in.Capacity != 4 || len(in.Trips) != 1 || in.Trips[0].ID != req.ID {
			t.Fatalf("%s: captured instance %+v, want origin %d, capacity 4, one trip with ID %d", algo, in, v.Loc(), req.ID)
		}
	}
}
