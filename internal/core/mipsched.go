package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mip"
	"repro/internal/sp"
)

// MIPScheduler formulates each instance as the mixed-integer program of
// paper §III-A and solves it with the internal simplex + branch-and-bound
// solver. Node 0 is the server's current position; D' holds dropoffs of
// onboard passengers, P pickups of waiting trips, D their dropoffs (pickup
// i in P matches dropoff i+n in D). Binary y_ij selects arc (i, j); B_i is
// the travel distance at which node i is reached. Constraint (5) is
// linearized with big-M coefficients à la Miller–Tucker–Zemlin, with
// M_ij = max{0, l_i + d_ij − e_j} from the per-node time windows.
//
// The paper's constraint set fixes incoming degrees only; as written it
// admits branching trees, so we add the (presumably intended) outgoing
// degree constraints Σ_j y_ij ≤ 1 and forbid arcs into node 0, which
// together force a Hamiltonian path from node 0.
type MIPScheduler struct {
	oracle     sp.Oracle
	maxNodes   int
	timeBudget time.Duration
}

// NewMIPScheduler returns a MIP scheduler. maxNodes caps the branch & bound
// search per instance (0 = solver default).
func NewMIPScheduler(oracle sp.Oracle, maxNodes int) *MIPScheduler {
	return &MIPScheduler{oracle: oracle, maxNodes: maxNodes}
}

// SetTimeBudget bounds the wall-clock time of each Schedule call; when the
// budget is exhausted the best incumbent found so far is returned (Exact is
// false). Zero disables the bound.
func (m *MIPScheduler) SetTimeBudget(d time.Duration) { m.timeBudget = d }

// Name implements Scheduler.
func (m *MIPScheduler) Name() string { return "mip" }

// Schedule implements Scheduler.
func (m *MIPScheduler) Schedule(inst *Instance) Result {
	g, res := newStopGraph(inst, m.oracle)
	if g == nil {
		return res
	}
	ns := len(g.stops)

	// Node layout: 0 = origin, then the stops in stopGraph order (their
	// graph index is already si+1). Classify each node.
	n := ns + 1
	// window[i] = [e_i, l_i]: earliest/latest reach distances (relative to
	// now) used for big-M; deadline[i] is the hard latest-visit bound used
	// in constraints (7)/(8), +Inf if none.
	earliest := make([]float64, n)
	latest := make([]float64, n)
	deadline := make([]float64, n)
	rideCapIdx := make([]int, n) // for D nodes: graph index of matching pickup, else -1
	for i := range rideCapIdx {
		rideCapIdx[i] = -1
	}
	const inf = math.MaxFloat64 / 4
	now := inst.Odo
	for si, s := range g.stops {
		i := si + 1
		t := &inst.Trips[s.Trip]
		earliest[i] = g.dist[0][i]
		switch {
		case s.Kind == Pickup:
			// Constraint (7): B_i <= remaining waiting budget.
			deadline[i] = t.WaitDeadline - now
			latest[i] = deadline[i]
		case t.OnBoard:
			// Constraint (8): B_i <= remaining ride budget.
			deadline[i] = t.DropDeadline - now
			latest[i] = deadline[i]
		default:
			// D node: constraint (9) bounds the ride length relative
			// to the matching pickup.
			pi := g.pickupIndex(si)
			if pi < 0 {
				return Result{} // malformed instance
			}
			rideCapIdx[i] = pi + 1
			earliest[i] = g.dist[0][pi+1] + g.dist[pi+1][i]
			latest[i] = (inst.Trips[s.Trip].WaitDeadline - now) + t.MaxRide
			deadline[i] = inf
		}
		if latest[i] < 0 {
			return Result{} // already past a deadline
		}
	}

	model := &mip.Model{}
	// y[i][j] variables; j != i, j != 0 (no arcs into the origin). Arcs
	// that can never be taken are eliminated up front, which shrinks both
	// the binary count and the MTZ row count considerably on constrained
	// instances:
	//   - time windows: earliest[i] + d_ij > latest[j] means j's deadline
	//     cannot be met after visiting i;
	//   - precedence: the arc from a trip's dropoff to its own pickup.
	y := make([][]int, n)
	for i := 0; i < n; i++ {
		y[i] = make([]int, n)
		for j := 0; j < n; j++ {
			y[i][j] = -1
			if i == j || j == 0 {
				continue
			}
			if i > 0 && earliest[i]+g.dist[i][j] > latest[j] {
				continue
			}
			if i == 0 && g.dist[0][j] > latest[j] {
				continue
			}
			if pi := rideCapIdx[i]; pi >= 0 && pi == j {
				continue // dropoff_i -> pickup_i violates precedence
			}
			y[i][j] = model.AddVar(g.dist[i][j], mip.Binary, fmt.Sprintf("y_%d_%d", i, j))
		}
	}
	// A node with no incoming or no outgoing candidate arcs makes the
	// instance infeasible (constraint (2) cannot be satisfied).
	for j := 1; j < n; j++ {
		hasIn := false
		for i := 0; i < n; i++ {
			if y[i][j] >= 0 {
				hasIn = true
				break
			}
		}
		if !hasIn {
			return Result{}
		}
	}
	// B[i] continuous, B_0 = 0 fixed by omission (node 0 has no B var;
	// arcs from 0 use B_j >= d_0j directly).
	bvar := make([]int, n)
	bvar[0] = -1
	for i := 1; i < n; i++ {
		bvar[i] = model.AddVar(0, mip.Continuous, fmt.Sprintf("B_%d", i))
	}

	addc := func(idx []int, val []float64, s mip.Sense, rhs float64) {
		if err := model.AddConstraint(idx, val, s, rhs); err != nil {
			panic("core: building MIP: " + err.Error())
		}
	}

	// (2) exactly one incoming arc per non-origin node.
	for i := 1; i < n; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if y[j][i] >= 0 {
				idx = append(idx, y[j][i])
				val = append(val, 1)
			}
		}
		addc(idx, val, mip.EQ, 1)
	}
	// (3) exactly one arc out of the origin.
	{
		var idx []int
		var val []float64
		for j := 1; j < n; j++ {
			if y[0][j] >= 0 {
				idx = append(idx, y[0][j])
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			return Result{} // nothing reachable from the origin in time
		}
		addc(idx, val, mip.EQ, 1)
	}
	// Outgoing degree <= 1 for non-origin nodes (see doc comment).
	for i := 1; i < n; i++ {
		var idx []int
		var val []float64
		for j := 1; j < n; j++ {
			if y[i][j] >= 0 {
				idx = append(idx, y[i][j])
				val = append(val, 1)
			}
		}
		addc(idx, val, mip.LE, 1)
	}
	// (4)+(5) linearized: B_j >= B_i + d_ij - M_ij (1 - y_ij).
	for i := 0; i < n; i++ {
		for j := 1; j < n; j++ {
			if y[i][j] < 0 {
				continue
			}
			li := latest[i] // l_0 = 0
			if i == 0 {
				li = 0
			}
			M := li + g.dist[i][j] - earliest[j]
			if M < 0 {
				M = 0
			}
			// B_j - B_i + M y_ij <= M - d_ij + M  ... rearrange:
			// B_j >= B_i + d_ij - M + M*y_ij
			// =>  -B_j + B_i + M*y_ij <= M - d_ij
			if i == 0 {
				addc([]int{bvar[j], y[i][j]}, []float64{-1, M}, mip.LE, M-g.dist[i][j])
			} else {
				addc([]int{bvar[j], bvar[i], y[i][j]}, []float64{-1, 1, M}, mip.LE, M-g.dist[i][j])
			}
		}
	}
	// (7)/(8) hard deadlines; also valid bound B_i >= d_0i tightens the LP.
	for i := 1; i < n; i++ {
		if deadline[i] < inf {
			addc([]int{bvar[i]}, []float64{1}, mip.LE, deadline[i])
		}
		addc([]int{bvar[i]}, []float64{1}, mip.GE, g.dist[0][i])
	}
	// Position-based MTZ subtour elimination for zero-length arcs only.
	// The distance-based constraint (5) already excludes any cycle of
	// positive total length (summing B_j >= B_i + d_ij around the cycle
	// gives 0 >= length), so the only escapes are cycles whose arcs all
	// have d_ij = 0 — distinct stops at the same vertex. Order variables
	// u with u_j >= u_i + 1 - ns(1 - y_ij) on those arcs close the gap
	// without the O(n²) row blow-up of a full MTZ layer.
	var uvar []int
	needU := func(i int) int {
		if uvar == nil {
			uvar = make([]int, n)
			for k := range uvar {
				uvar[k] = -1
			}
		}
		if uvar[i] < 0 {
			uvar[i] = model.AddVar(0, mip.Continuous, fmt.Sprintf("u_%d", i))
			addc([]int{uvar[i]}, []float64{1}, mip.LE, float64(ns))
		}
		return uvar[i]
	}
	for i := 1; i < n; i++ {
		for j := 1; j < n; j++ {
			if y[i][j] < 0 || g.dist[i][j] > 0 {
				continue
			}
			ui, uj := needU(i), needU(j)
			// u_j >= u_i + 1 - ns(1-y_ij)
			// => -u_j + u_i + ns*y_ij <= ns - 1
			addc([]int{uj, ui, y[i][j]}, []float64{-1, 1, float64(ns)}, mip.LE, float64(ns)-1)
		}
	}

	// (6)+(9) ride-length window for waiting dropoffs:
	// d(pickup, dropoff) <= B_drop - B_pick <= MaxRide.
	for i := 1; i < n; i++ {
		pi := rideCapIdx[i]
		if pi < 0 {
			continue
		}
		trip := g.stops[i-1].Trip
		addc([]int{bvar[i], bvar[pi]}, []float64{1, -1}, mip.LE, inst.Trips[trip].MaxRide)
		addc([]int{bvar[i], bvar[pi]}, []float64{1, -1}, mip.GE, g.dist[pi][i])
	}

	// Vehicle-capacity constraints (Table I "Capacity"): load variables
	// Q_i propagate along selected arcs, Q_i <= Capacity at pickups. The
	// paper's formulation omits these (its instances are pre-filtered by
	// capacity); we enforce them so all schedulers solve the same problem.
	if inst.Capacity > 0 {
		onboard0 := 0
		for i := range inst.Trips {
			if inst.Trips[i].OnBoard {
				onboard0++
			}
		}
		load := func(i int) float64 {
			if g.stops[i-1].Kind == Pickup {
				return 1
			}
			return -1
		}
		qvar := make([]int, n)
		qvar[0] = -1
		for i := 1; i < n; i++ {
			qvar[i] = model.AddVar(0, mip.Continuous, fmt.Sprintf("Q_%d", i))
			// 0 <= Q_i <= Capacity; pickups additionally need
			// Q_i >= 1, dropoffs Q_i <= Capacity-1... the simple
			// bounds suffice together with the propagation.
			addc([]int{qvar[i]}, []float64{1}, mip.LE, float64(inst.Capacity))
		}
		M := float64(inst.Capacity + 1)
		for i := 0; i < n; i++ {
			for j := 1; j < n; j++ {
				if y[i][j] < 0 {
					continue
				}
				if i == 0 {
					base := float64(onboard0) + load(j)
					// Q_j >= base - M(1-y) and <= base + M(1-y)
					addc([]int{qvar[j], y[i][j]}, []float64{-1, M}, mip.LE, M-base)
					addc([]int{qvar[j], y[i][j]}, []float64{1, M}, mip.LE, M+base)
				} else {
					addc([]int{qvar[j], qvar[i], y[i][j]}, []float64{-1, 1, M}, mip.LE, M-load(j))
					addc([]int{qvar[j], qvar[i], y[i][j]}, []float64{1, -1, M}, mip.LE, M+load(j))
				}
			}
		}
	}

	// Warm start: a nearest-first depth-first search finds some valid
	// schedule quickly. It primes the branch & bound incumbent the way
	// commercial solvers seed theirs with construction heuristics, which is
	// what makes the bound prune on loosely constrained instances, and it
	// guarantees a valid answer even if the search is truncated by the node
	// or time budget.
	warm := newBFSearch(g, m.oracle, true)
	warmOK := warm.rec(0, inst.Odo)
	warmCost := warm.best - inst.Odo
	opts := mip.SolveOptions{MaxNodes: m.maxNodes}
	if warmOK {
		opts.InitialBound = warmCost + 1e-6
	}
	if m.timeBudget > 0 {
		opts.Deadline = time.Now().Add(m.timeBudget) //vetkit:allow determinism operator time budget: the MIP deadline is an explicit wall-clock knob, zero (off) in equivalence runs
	}
	sol, err := model.Solve(opts)
	if err != nil || !sol.Found {
		if warmOK {
			// The solver found nothing better than the warm-started
			// incumbent. If the search completed (status Infeasible
			// means "no solution below the initial bound"), the greedy
			// schedule is proven optimal; on truncation it is just the
			// best known.
			res := g.result(warm.bestSeq, warmCost)
			res.Exact = err == nil && sol != nil && sol.Status == mip.Infeasible
			return res
		}
		return Result{}
	}

	// Extract the path by following selected arcs from node 0.
	order := make([]Stop, 0, ns)
	visited := make([]bool, n)
	at := 0
	for len(order) < ns {
		next := -1
		for j := 1; j < n; j++ {
			if y[at][j] >= 0 && sol.X[y[at][j]] > 0.5 && !visited[j] {
				next = j
				break
			}
		}
		if next < 0 {
			return Result{} // disconnected selection: should not happen
		}
		visited[next] = true
		order = append(order, g.stops[next-1])
		at = next
	}
	// Recompute the cost from the order (the solver objective equals it,
	// but the walk revalidates the schedule end to end).
	cost, verr := ValidateOrder(inst, m.oracle, order)
	if verr != nil {
		return Result{}
	}
	return Result{OK: true, Cost: cost, Order: order, Exact: sol.Status == mip.Optimal}
}
