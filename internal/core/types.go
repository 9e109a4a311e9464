// Package core implements the ridesharing matching algorithms of the paper:
// the brute-force and branch-and-bound schedulers (§II–III), the
// mixed-integer-programming scheduler (§III-A), and the kinetic tree in its
// basic, slack-time, and hotspot-clustering variants (§IV–V).
//
// All costs and times are expressed in meters of travel at constant speed
// (roadnet.Speed); "odometer" values are cumulative distances traveled by a
// server, so deadlines are absolute odometer readings. This follows the
// paper's convention that "most computations are done in terms of distance
// instead of time" (§VI).
package core

import (
	"fmt"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// StopKind distinguishes pickup from dropoff stops.
type StopKind int8

// Stop kinds.
const (
	Pickup StopKind = iota
	Dropoff
)

func (k StopKind) String() string {
	if k == Pickup {
		return "pickup"
	}
	return "dropoff"
}

// Stop is one scheduled visit: the pickup or dropoff point of a trip.
type Stop struct {
	Trip   int // index into Instance.Trips
	Kind   StopKind
	Vertex roadnet.VertexID
}

func (s Stop) String() string {
	return fmt.Sprintf("%s(trip %d @%d)", s.Kind, s.Trip, s.Vertex)
}

// TripState is a trip request together with its remaining service-guarantee
// budgets, expressed as absolute odometer deadlines of the serving vehicle.
type TripState struct {
	ID      int64 // external request identifier
	Pickup  roadnet.VertexID
	Dropoff roadnet.VertexID

	// ShortestLen is d(Pickup, Dropoff); MaxRide is (1+ε)·ShortestLen,
	// the service constraint on the in-vehicle distance (paper Def. 2,
	// condition 3).
	ShortestLen float64
	MaxRide     float64

	// OnBoard reports whether the passenger has been picked up.
	OnBoard bool

	// WaitDeadline is the absolute odometer reading by which the pickup
	// must occur (request odometer + w). Meaningful only when !OnBoard
	// (paper Def. 2, condition 2).
	WaitDeadline float64

	// DropDeadline is the absolute odometer reading by which the dropoff
	// must occur (pickup odometer + MaxRide). Meaningful only when
	// OnBoard.
	DropDeadline float64
}

// Stops returns the pending stops of the trip: the dropoff alone for an
// onboard passenger, pickup then dropoff otherwise.
func (t *TripState) Stops(idx int) []Stop {
	if t.OnBoard {
		return []Stop{{Trip: idx, Kind: Dropoff, Vertex: t.Dropoff}}
	}
	return []Stop{
		{Trip: idx, Kind: Pickup, Vertex: t.Pickup},
		{Trip: idx, Kind: Dropoff, Vertex: t.Dropoff},
	}
}

// Instance is one rescheduling problem: a server at Origin with odometer
// Odo must visit every pending stop of Trips in some valid order. This is
// the "new unfinished schedule" part of the augmented valid trip schedule
// (paper §I-A); by convention the new request, if any, is the last trip.
type Instance struct {
	Origin roadnet.VertexID
	Odo    float64
	Trips  []TripState
	// Capacity is the maximum number of passengers the vehicle may carry
	// simultaneously; 0 means unlimited (paper §VI-B "unlim").
	Capacity int
}

// PendingStops returns all stops that must be scheduled, grouped per trip
// in trip order.
func (in *Instance) PendingStops() []Stop {
	var out []Stop
	for i := range in.Trips {
		out = append(out, in.Trips[i].Stops(i)...)
	}
	return out
}

// Result is the outcome of scheduling an Instance.
type Result struct {
	// OK reports whether any valid schedule exists.
	OK bool
	// Cost is the total travel distance of the best schedule found,
	// from Origin through every stop in Order.
	Cost float64
	// Order is the stop sequence of the best schedule.
	Order []Stop
	// Exact reports whether Cost is proven optimal. It is false when a
	// truncated search (MIP node limit, hotspot approximation) returned
	// an incumbent without proof.
	Exact bool
}

// Scheduler computes a minimum-cost valid schedule for an instance.
type Scheduler interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Schedule solves the instance. Implementations may issue many
	// distance queries against their oracle; they must not retain inst.
	Schedule(inst *Instance) Result
}

// walker validates stop sequences incrementally. It carries the branch state
// shared by all the search algorithms: current odometer, and the odometer at
// which each waiting trip's pickup occurred on this branch.
type walker struct {
	inst    *Instance
	oracle  sp.Oracle
	pickAt  []float64 // per trip; -1 = not yet picked on this branch
	onboard int       // passengers in the vehicle at the current branch point
}

func newWalker(inst *Instance, oracle sp.Oracle) *walker {
	w := &walker{inst: inst, oracle: oracle, pickAt: make([]float64, len(inst.Trips))}
	w.resetBranch()
	return w
}

func (w *walker) resetBranch() {
	for i := range w.pickAt {
		w.pickAt[i] = -1
	}
	w.onboard = 0
	for i := range w.inst.Trips {
		if w.inst.Trips[i].OnBoard {
			w.onboard++
		}
	}
}

// feasibleAt reports whether visiting stop s at absolute odometer `at`
// satisfies the stop's constraint, given the branch state. It does not
// mutate state; call noteVisit after a successful check.
func (w *walker) feasibleAt(s Stop, at float64) bool {
	t := &w.inst.Trips[s.Trip]
	if s.Kind == Pickup {
		if w.inst.Capacity > 0 && w.onboard >= w.inst.Capacity {
			return false
		}
		return at <= t.WaitDeadline
	}
	if t.OnBoard {
		return at <= t.DropDeadline
	}
	p := w.pickAt[s.Trip]
	if p < 0 {
		return false // dropoff before pickup: precedence violation
	}
	return at-p <= t.MaxRide
}

// noteVisit records the visit of s at odometer `at` in the branch state.
func (w *walker) noteVisit(s Stop, at float64) {
	if s.Kind == Pickup {
		w.pickAt[s.Trip] = at
		w.onboard++
	} else {
		w.onboard--
	}
}

// unnoteVisit undoes noteVisit when backtracking.
func (w *walker) unnoteVisit(s Stop) {
	if s.Kind == Pickup {
		w.pickAt[s.Trip] = -1
		w.onboard--
	} else {
		w.onboard++
	}
}

// ValidateOrder checks that order is a valid schedule for inst and returns
// its total cost. It is the reference implementation of Definition 2 used by
// tests and by cross-validation of the schedulers.
func ValidateOrder(inst *Instance, oracle sp.Oracle, order []Stop) (float64, error) {
	// Every pending stop exactly once.
	need := make(map[Stop]int)
	for _, s := range inst.PendingStops() {
		need[s]++
	}
	for _, s := range order {
		if need[s] == 0 {
			return 0, fmt.Errorf("core: unexpected or duplicate stop %v", s)
		}
		need[s]--
	}
	// Walk the instance's own stop order, not the map, so the same stop is
	// named in the error on every run.
	for _, s := range inst.PendingStops() {
		if need[s] != 0 {
			return 0, fmt.Errorf("core: stop %v missing from schedule", s)
		}
	}
	w := newWalker(inst, oracle)
	at := inst.Odo
	from := inst.Origin
	for _, s := range order {
		leg := oracle.Dist(from, s.Vertex)
		if leg == sp.Inf {
			return 0, fmt.Errorf("core: stop %v unreachable from %d", s, from)
		}
		at += leg
		if !w.feasibleAt(s, at) {
			return 0, fmt.Errorf("core: stop %v violates its constraint at odo %.1f", s, at)
		}
		w.noteVisit(s, at)
		from = s.Vertex
	}
	return at - inst.Odo, nil
}

// NewTripState builds a TripState for a request made when the serving
// vehicle's odometer reads odoAtRequest: the pickup deadline is
// odoAtRequest + wait, and the ride budget is (1+eps)·d(pickup, dropoff).
// Both budgets are rounded down to roadnet's grid, so the tree's sums are exact.
func NewTripState(id int64, pickup, dropoff roadnet.VertexID, wait, eps, odoAtRequest float64, oracle sp.Oracle) (TripState, error) {
	d := oracle.Dist(pickup, dropoff)
	if d == sp.Inf {
		return TripState{}, fmt.Errorf("core: trip %d: dropoff %d unreachable from pickup %d", id, dropoff, pickup)
	}
	return TripState{
		ID:           id,
		Pickup:       pickup,
		Dropoff:      dropoff,
		ShortestLen:  d,
		MaxRide:      roadnet.RoundDown((1 + eps) * d),
		WaitDeadline: odoAtRequest + roadnet.RoundDown(wait),
	}, nil
}

// MarkPickedUp converts a waiting trip to an onboard trip picked up at the
// given odometer reading.
func (t *TripState) MarkPickedUp(odoAtPickup float64) {
	t.OnBoard = true
	t.DropDeadline = odoAtPickup + t.MaxRide
}

// WaitForDeadline converts a fixed completion deadline into the equivalent
// waiting-time budget, per paper §VII: "Given a fixed deadline t, the
// maximal waiting time can be defined as w = t − (1+ε)d(s,e)", which lets
// the ridesharing algorithms solve fixed-deadline dial-a-ride problems.
// deadline and the result are in meters of server travel (time × speed);
// a non-positive result means the deadline is unmeetable even with a
// zero-wait pickup.
func WaitForDeadline(deadline, eps, shortestLen float64) float64 {
	return deadline - (1+eps)*shortestLen
}

// NewTripStateWithDeadline builds a TripState for a request that must be
// completed (dropped off) by the given absolute odometer deadline, using
// the §VII reduction to a waiting-time constraint.
func NewTripStateWithDeadline(id int64, pickup, dropoff roadnet.VertexID, deadline, eps, odoAtRequest float64, oracle sp.Oracle) (TripState, error) {
	d := oracle.Dist(pickup, dropoff)
	if d == sp.Inf {
		return TripState{}, fmt.Errorf("core: trip %d: dropoff %d unreachable from pickup %d", id, dropoff, pickup)
	}
	wait := WaitForDeadline(deadline-odoAtRequest, eps, d)
	if wait <= 0 {
		return TripState{}, fmt.Errorf("core: trip %d: deadline %.1f unmeetable (needs %.1f riding)", id, deadline, (1+eps)*d)
	}
	return NewTripState(id, pickup, dropoff, wait, eps, odoAtRequest, oracle)
}
