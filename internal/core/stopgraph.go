package core

import (
	"repro/internal/sp"
)

// stopGraph is the complete graph over {origin} ∪ pending stops with
// shortest-path edge weights, shared by the brute-force, branch-and-bound,
// and MIP schedulers (paper §II: "We treat N as a complete graph with
// vertices being N and edge weights being the shortest path distances").
// Index 0 is the origin; stop i is at index i+1.
type stopGraph struct {
	inst  *Instance
	stops []Stop
	n     int         // len(stops) + 1
	dist  [][]float64 // n x n
	// minIncident[i] is the minimum-cost edge incident to point i,
	// the branch-and-bound lower-bound ingredient (paper §III).
	minIncident []float64
}

// newStopGraph resolves inst's stop graph. A nil graph means res is already
// the whole answer: infeasible (a stop unreachable, or more than MaxStops of
// them) or, with no stop pending, the empty schedule.
func newStopGraph(inst *Instance, oracle sp.Oracle) (g *stopGraph, res Result) {
	stops := inst.PendingStops()
	switch {
	case len(stops) > MaxStops:
		return nil, Result{}
	case len(stops) == 0:
		return nil, Result{OK: true, Exact: true}
	}
	n := len(stops) + 1
	g = &stopGraph{inst: inst, stops: stops, n: n}
	g.dist = make([][]float64, n)
	verts := make([]int32, n)
	verts[0] = inst.Origin
	for i, s := range stops {
		verts[i+1] = s.Vertex
	}
	for i := 0; i < n; i++ {
		g.dist[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := oracle.Dist(verts[i], verts[j])
			if d == sp.Inf {
				return nil, Result{}
			}
			g.dist[i][j] = d
		}
	}
	g.minIncident = make([]float64, n)
	for i := 0; i < n; i++ {
		min := sp.Inf
		for j := 0; j < n; j++ {
			if i != j && g.dist[i][j] < min {
				min = g.dist[i][j]
			}
		}
		if min == sp.Inf {
			min = 0 // single-point graph
		}
		g.minIncident[i] = min
	}
	return g, Result{}
}

// result is the exact schedule visiting the stops in seq order at the given
// total cost.
func (g *stopGraph) result(seq []int, cost float64) Result {
	order := make([]Stop, len(seq))
	for i, si := range seq {
		order[i] = g.stops[si]
	}
	return Result{OK: true, Cost: cost, Order: order, Exact: true}
}

// pickupIndex returns, for the stop at index si (0-based into stops), the
// stop index of its matching pickup, or -1 if the trip is onboard or the
// stop is itself a pickup.
func (g *stopGraph) pickupIndex(si int) int {
	s := g.stops[si]
	if s.Kind == Pickup || g.inst.Trips[s.Trip].OnBoard {
		return -1
	}
	for j, o := range g.stops {
		if o.Trip == s.Trip && o.Kind == Pickup {
			return j
		}
	}
	return -1
}
