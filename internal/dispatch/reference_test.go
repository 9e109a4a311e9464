package dispatch

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/spatial"
)

// refMatcher is the equivalence suites' independent reference: the paper's
// matching loop (§I-A: "find the vehicle that minimizes the overall trip
// cost for the augmented valid trip schedule") written as naively as it
// can be — one sim.Worker and one grid over the whole fleet, candidates
// scanned in ID order, a strictly cheaper trial wins, commit. It shares the
// per-vehicle mechanics (sim.Worker) with the Engine and nothing else, so
// what the suites pin against it is everything the Engine adds: sharding,
// fan-out, the (cost, ID) reduction, batch windows and conflict repair.
// Deliberately absent: tracing, live counters, fault hooks, the drain cap.
type refMatcher struct {
	cfg      sim.Config
	w        *sim.Worker
	grid     *spatial.GridIndex
	vehicles []*sim.Vehicle
	reports  sim.ReportHeap
	metrics  *sim.Metrics
	clock    float64
}

func newRefMatcher(t testing.TB, cfg sim.Config) *refMatcher {
	t.Helper()
	m := sim.NewMetrics()
	r := &refMatcher{cfg: cfg, w: sim.NewWorker(cfg, cfg.Oracle, m), metrics: m}
	minX, minY, maxX, maxY := cfg.Graph.Bounds()
	grid, err := spatial.NewGridIndex(minX, minY, maxX, maxY, r.w.CellSize())
	if err != nil {
		t.Fatal(err)
	}
	r.grid = grid
	for i, p := range sim.Placements(cfg) {
		r.vehicles = append(r.vehicles, r.w.NewVehicle(i, p.Loc))
		x, y := cfg.Graph.Coord(p.Loc)
		r.grid.Insert(spatial.ObjectID(i), x, y)
		r.reports.Push(sim.Report{Due: p.FirstReport, Veh: i})
	}
	return r
}

// Submit matches one request at its arrival time and reports the vehicle
// it was committed to.
func (r *refMatcher) Submit(req sim.Request) (matched bool, vehID int) {
	if req.Time < r.clock {
		req.Time = r.clock
	}
	r.clock = req.Time
	// Position reports due by now move their vehicles and refresh the grid.
	for r.reports.Len() > 0 && r.reports.Min().Due <= req.Time {
		rep := r.reports.Min()
		v := r.vehicles[rep.Veh]
		r.w.AdvanceTo(v, rep.Due)
		x, y := r.cfg.Graph.Coord(v.Loc())
		r.grid.Update(spatial.ObjectID(rep.Veh), x, y)
		r.reports.ReplaceMin(sim.Report{Due: rep.Due + r.w.ReportInterval(), Veh: rep.Veh})
	}
	r.metrics.Requests++

	waitMeters, eps := r.w.Budget(req)
	px, py := r.cfg.Graph.Coord(req.Pickup)
	best, bestVeh := sim.Trial{}, -1
	for _, id := range r.grid.Within(nil, px, py, r.w.CandidateRadius(waitMeters)) {
		v := r.vehicles[int(id)]
		r.w.AdvanceTo(v, req.Time)
		tr, ok := r.w.Trial(v, req, px, py, waitMeters, eps)
		if !ok {
			continue
		}
		if bestVeh < 0 || tr.Cost < best.Cost {
			best, bestVeh = tr, int(id)
		}
	}
	r.metrics.AddACRT(0) // one sample per request; the Engine's value is wall time
	if bestVeh < 0 {
		r.metrics.Rejected++
		return false, -1
	}
	r.w.Commit(r.vehicles[bestVeh], best)
	return true, bestVeh
}

// assignments submits the whole stream and returns each request's vehicle
// (-1 when rejected), in stream order.
func (r *refMatcher) assignments(reqs []sim.Request) []int {
	out := make([]int, len(reqs))
	for i, req := range reqs {
		_, out[i] = r.Submit(req)
	}
	return out
}

// Drain runs the fleet until every committed schedule is finished, in the
// engine's round length (an idle vehicle cruises for the rest of the round
// it finishes in, so vehicle-metres depend on it), then records occupancy.
func (r *refMatcher) Drain() {
	for busy := true; busy; {
		busy = false
		r.clock += drainStep
		for _, v := range r.vehicles {
			if v.Busy() {
				r.w.AdvanceTo(v, r.clock)
				busy = busy || v.Busy()
			}
		}
	}
	for _, v := range r.vehicles {
		r.metrics.AddOccupancy(v.PeakOnboard())
	}
}

func (r *refMatcher) CheckInvariants() error {
	if r.metrics.Violations > 0 {
		return fmt.Errorf("%d service-guarantee violations", r.metrics.Violations)
	}
	for _, v := range r.vehicles {
		if err := r.w.CheckVehicle(v); err != nil {
			return fmt.Errorf("vehicle %d: %w", v.ID(), err)
		}
	}
	return nil
}
