package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Vehicle is one server: its position, odometer and kinetic tree (the
// materialization of every valid schedule from here on, paper §IV).
// Vehicles are moved and scheduled through a Worker; the type itself
// exposes only read accessors.
type Vehicle struct {
	id    int
	loc   roadnet.VertexID
	odo   float64 // meters traveled since simulation start
	clock float64 // simulation time (seconds) of the last advance

	tree *core.Tree

	// Current leg being driven (toward the tree's next stop or cruising).
	path    []roadnet.VertexID // path[0] == loc conceptually; consumed from front
	pathPos int

	peakOnboard int
	rng         *rand.Rand

	// bookkeeping for service accounting, keyed by trip ID
	requestOdo map[int64]float64 // odometer at request time
	pickupOdo  map[int64]float64 // odometer at pickup
}

// ID returns the vehicle's fleet-wide identifier.
func (v *Vehicle) ID() int { return v.id }

// Loc returns the vehicle's current vertex.
func (v *Vehicle) Loc() roadnet.VertexID { return v.loc }

// PeakOnboard returns the largest simultaneous passenger count observed.
func (v *Vehicle) PeakOnboard() int { return v.peakOnboard }

// Busy reports whether the vehicle has committed stops to serve.
func (v *Vehicle) Busy() bool { return !v.tree.Empty() }

// AdvanceTo moves the vehicle forward to simulation time t, following its
// committed schedule when busy and cruising randomly when idle ("a vehicle
// ... follows a given route when there are customer(s) on board or,
// otherwise, follows the current road segment; at intersections, the next
// segment to follow is chosen randomly", §VI).
func (w *Worker) AdvanceTo(v *Vehicle, t float64) {
	if t < v.clock {
		return
	}
	budget := (t - v.clock) * roadnet.Speed // meters available
	v.clock = t
	for budget > 1e-9 {
		if v.Busy() {
			target := v.tree.NextStops()[0].Vertex // the next committed stop
			if target == v.loc {
				budget = w.serveStop(v, budget)
				continue
			}
			if !w.stepToward(v, target, &budget) {
				return // unreachable target: freeze (cannot happen on connected graphs)
			}
		} else {
			w.cruise(v, &budget)
		}
	}
}

// stepToward advances along the shortest path to target, consuming budget.
// Returns false if no path exists.
func (w *Worker) stepToward(v *Vehicle, target roadnet.VertexID, budget *float64) bool {
	if v.pathPos >= len(v.path) || v.path[len(v.path)-1] != target || v.path[v.pathPos] != v.loc {
		v.path = w.oracle.Path(v.loc, target)
		v.pathPos = 0
		if len(v.path) == 0 {
			return false
		}
	}
	for v.pathPos+1 < len(v.path) && *budget > 1e-9 {
		next := v.path[v.pathPos+1]
		ew, ok := w.graph.EdgeWeight(v.loc, next)
		if !ok {
			// Path vertices are always adjacent; defensive only.
			ew = w.oracle.Dist(v.loc, next)
		}
		if ew > *budget {
			// Cannot complete the edge this step; hold position at the
			// current vertex (vertex-granular motion).
			*budget = 0
			return true
		}
		*budget -= ew
		v.odo += ew
		v.loc = next
		v.pathPos++
		w.metrics.TotalVehicleMeters += ew
		v.tree.SetLocation(v.loc, v.odo)
	}
	return true
}

// cruise moves the idle vehicle along random road segments.
func (w *Worker) cruise(v *Vehicle, budget *float64) {
	ts, ws := w.graph.Neighbors(v.loc)
	if len(ts) == 0 {
		*budget = 0
		return
	}
	i := v.rng.Intn(len(ts))
	if ws[i] > *budget {
		*budget = 0 // vertex-granular: stay until enough budget accrues
		return
	}
	*budget -= ws[i]
	v.odo += ws[i]
	v.loc = ts[i]
	w.metrics.TotalVehicleMeters += ws[i]
	// Keep the (empty) tree's root in sync while cruising: the next trial
	// insertion computes every leg from the tree's location.
	v.tree.SetLocation(v.loc, v.odo)
}

// serveStop handles arrival at the next scheduled stop and returns the
// remaining budget (intra-hotspot travel is consumed from it).
func (w *Worker) serveStop(v *Vehicle, budget float64) float64 {
	v.tree.SetLocation(v.loc, v.odo)
	pre := v.tree.Odo()
	served, err := v.tree.Advance()
	if err != nil {
		panic(fmt.Sprintf("sim: vehicle %d: %v", v.id, err))
	}
	delta := v.tree.Odo() - pre // intra-hotspot distance
	budget -= delta
	v.odo = v.tree.Odo()
	v.loc = v.tree.Loc()
	w.metrics.TotalVehicleMeters += delta
	for _, sv := range served {
		w.accountStop(v, sv.Stop.Kind, sv.Trip, sv.Odo)
	}
	return budget
}

// accountStop updates service metrics when a stop is served at odometer at.
func (w *Worker) accountStop(v *Vehicle, kind core.StopKind, tr core.TripState, at float64) {
	switch kind {
	case core.Pickup:
		if ob := v.tree.OnBoard(); ob > v.peakOnboard {
			v.peakOnboard = ob
		}
		v.pickupOdo[tr.ID] = at
		if reqOdo, ok := v.requestOdo[tr.ID]; ok {
			w.metrics.TotalWaitMeters += at - reqOdo
		}
		// The trip state carries its own (possibly individualized)
		// waiting deadline.
		if at > tr.WaitDeadline {
			w.metrics.Violations++
		}
	case core.Dropoff:
		w.metrics.Completed++
		w.live.Add(obs.Completed, 1)
		w.ring.Emit(obs.KindCompleted, tr.ID, v.clock, int64(v.id))
		if pOdo, ok := v.pickupOdo[tr.ID]; ok {
			ride := at - pOdo
			w.metrics.TotalRideMeters += ride
			w.metrics.TotalShortestLen += tr.ShortestLen
			if ride > tr.MaxRide {
				w.metrics.Violations++
			}
			delete(v.pickupOdo, tr.ID)
		}
		delete(v.requestOdo, tr.ID)
	}
}
