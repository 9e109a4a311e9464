package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// TreeOptions selects the kinetic-tree variant (paper §IV–V).
type TreeOptions struct {
	// Slack enables min-max filtering with slack time (paper Theorem 1):
	// each node caches the detour tolerance of its subtree, letting
	// insertions prune whole subtrees without walking them.
	Slack bool
	// HotspotTheta, when positive, enables hotspot clustering (paper §V):
	// a point within HotspotTheta meters of every point of an adjacent
	// node is merged into that node instead of spawning alternative
	// orderings, bounding tree growth at clustered pickups/dropoffs with
	// cost error at most 2(m+1)·θ (paper Theorems 2–3).
	HotspotTheta float64
	// MaxTreeNodes, when positive, caps the size of a candidate tree; a
	// trial insertion that would exceed it fails. This emulates the
	// paper's 3 GB memory cutoff at which the basic variants "break off"
	// (Fig. 9c) without taking the process down.
	MaxTreeNodes int
	// Capacity is the maximum number of passengers carried simultaneously;
	// 0 means unlimited.
	Capacity int
	// LazyInvalidation defers pruning of branches invalidated by server
	// movement until the next request arrives, instead of pruning on every
	// location update (paper §IV-A: "The lazy invalidation option only
	// performs such pruning when necessary, i.e., only when there is a new
	// incoming request"). Movement updates then cost O(children) instead
	// of a subtree walk; the dead branches are carried until the next
	// TrialInsert, which revalidates before inserting.
	LazyInvalidation bool
	// Lower, when set, is a landmark index whose lower bounds let a trial
	// insertion skip any distance search whose answer it could only
	// reject: a placement whose arrival at the bound already misses its
	// deadline, a copied subtree whose detour at the bound already exceeds
	// its slack, a hotspot merge whose bound is already past θ. Float
	// addition and the feasibility tests are monotone, so a rejection at
	// the bound is a rejection at the exact distance, and every result —
	// candidate, cost, schedule, node count — is the one the tree computes
	// without it. A pair the oracle's table already holds (a prober under
	// any sp.Unwrap layers) is read from the table, not bounded. Movement
	// never consults it.
	Lower *sp.ALT
}

// treeNode is one scheduled visit in the kinetic tree. With hotspot
// clustering a node may carry several stops, visited consecutively in
// stored order. Every root→leaf path of the tree is one valid schedule of
// all pending stops.
type treeNode struct {
	stops    []Stop
	leg      float64   // distance from the parent's last stop to stops[0]
	intra    []float64 // distances between consecutive stops, len = len(stops)-1
	intraSum float64
	children []*treeNode

	// Slack aggregates (valid when TreeOptions.Slack):
	// dmax is a sound upper bound on the detour the most lenient branch
	// of this subtree tolerates when inserted above this node (∆ in the
	// paper, computed window-aware so it never prunes a feasible branch);
	// dmin is a sound lower bound below which every branch survives.
	dmax float64
	dmin float64
}

func (n *treeNode) lastVertex() roadnet.VertexID { return n.stops[len(n.stops)-1].Vertex }

// size returns the number of nodes in the subtree.
func (n *treeNode) size() int {
	s := 1
	for _, c := range n.children {
		s += c.size()
	}
	return s
}

// Tree is the kinetic tree of one server: the materialization of all valid
// trip schedules from the server's current location onward (paper §IV).
// The root tracks the current location; each root→leaf path is a valid
// schedule. The zero value is not usable; use NewTree.
//
// Not safe for concurrent use.
type Tree struct {
	oracle sp.Oracle
	held   prober // the table under oracle, if any (only read with opts.Lower)
	opts   TreeOptions

	loc      roadnet.VertexID
	odo      float64 // cumulative distance traveled by the server
	trips    []TripState
	done     []bool // trips completed (slots retained until tree empties)
	children []*treeNode

	pickAt  []float64 // walk scratch, len == len(trips)
	onboard int       // walk scratch: passengers in the vehicle at the branch point
	nodes   int       // node count of the committed tree
	gen     uint64    // mutations (Commit, Advance, SetLocation) so far
	stale   bool      // lazy invalidation: movement since the last revalidation
	ins     inserter  // per-trial scratch; reused so trials allocate no inserter
}

// resetWalk initializes the branch-walk scratch state to the root position:
// no branch pickups recorded, onboard count = passengers currently in the
// vehicle.
func (t *Tree) resetWalk() {
	for i := range t.pickAt {
		t.pickAt[i] = -1
	}
	t.onboard = 0
	for i := range t.trips {
		if !t.done[i] && t.trips[i].OnBoard {
			t.onboard++
		}
	}
}

// visitStop records stop s (visited at odometer `arrive`) in the walk state.
func (t *Tree) visitStop(s Stop, arrive float64) {
	if s.Kind == Pickup {
		t.pickAt[s.Trip] = arrive
		t.onboard++
	} else {
		t.onboard--
	}
}

// unvisitStop undoes visitStop when backtracking.
func (t *Tree) unvisitStop(s Stop) {
	if s.Kind == Pickup {
		t.pickAt[s.Trip] = -1
		t.onboard--
	} else {
		t.onboard++
	}
}

// NewTree returns an empty kinetic tree for a server at the given location
// with the given odometer reading.
func NewTree(oracle sp.Oracle, loc roadnet.VertexID, odo float64, opts TreeOptions) *Tree {
	held, _ := sp.Unwrap(oracle).(prober)
	return &Tree{oracle: oracle, held: held, opts: opts, loc: loc, odo: odo}
}

// prober is an oracle's distance table (cache.SharedWorker): Probe returns
// the held distance from u to v, or ok=false when Dist would search.
type prober interface {
	Probe(u, v roadnet.VertexID) (d float64, ok bool)
}

// peek returns the distance from u to v when it is known without a search
// (exact=true), and otherwise a lower bound on it (exact=false), which the
// caller tests against its own rejection rule before paying for Dist. The
// order is the table first, then the bound: a pair the table holds is
// served (and counted) as a hit. Without opts.Lower it is plain Dist.
func (t *Tree) peek(u, v roadnet.VertexID) (d float64, exact bool) {
	if t.opts.Lower == nil {
		return t.oracle.Dist(u, v), true
	}
	if t.held != nil {
		if d, ok := t.held.Probe(u, v); ok {
			return d, true
		}
	}
	return t.opts.Lower.Lower(u, v), false
}

// Loc returns the server's current location vertex.
func (t *Tree) Loc() roadnet.VertexID { return t.loc }

// Odo returns the server's current odometer reading in meters.
func (t *Tree) Odo() float64 { return t.odo }

// Empty reports whether the tree has no pending stops.
func (t *Tree) Empty() bool { return len(t.children) == 0 }

// Nodes returns the node count of the committed tree.
func (t *Tree) Nodes() int { return t.nodes }

// ActiveTrips returns the number of accepted, not yet completed trips.
func (t *Tree) ActiveTrips() int {
	n := 0
	for i := range t.trips {
		if !t.done[i] {
			n++
		}
	}
	return n
}

// OnBoard returns the number of passengers currently in the vehicle.
func (t *Tree) OnBoard() int {
	n := 0
	for i := range t.trips {
		if !t.done[i] && t.trips[i].OnBoard {
			n++
		}
	}
	return n
}

// ActiveTripStates appends copies of the accepted, uncompleted trips in
// slot order to out and returns the extended slice; used to reconstruct
// the equivalent rescheduling instance. Passing a recycled buffer makes
// the call allocation-free once the buffer has grown to fleet steady
// state.
func (t *Tree) ActiveTripStates(out []TripState) []TripState {
	for i := range t.trips {
		if !t.done[i] {
			out = append(out, t.trips[i])
		}
	}
	return out
}

// Candidate is the outcome of a successful TrialInsert: a fully built new
// tree that includes the trial trip, ready to be adopted with Commit. The
// originating tree is not modified until then.
//
// A candidate's nodes are all fresh: its forest shares no node with the
// committed tree or with any other candidate, because SetLocation and the
// revalidators mutate committed nodes in place. Only the stops/intra
// backing arrays are shared between a node and its copies, and they are
// never written through.
type Candidate struct {
	Cost     float64 // total cost of the best schedule in the new tree
	gen      uint64  // the tree's mutation count when the trial ran
	trip     TripState
	children []*treeNode
}

// Release does nothing: tree nodes are garbage-collected, so a dropped
// candidate needs no cleanup. It stays only because benchmark/probes.go,
// frozen, calls it.
func (c *Candidate) Release() {}

// ErrTooManyTrips is returned when a server would exceed the per-server
// active-trip limit imposed by the walk bitmask width.
var ErrTooManyTrips = errors.New("core: too many active trips on one server")

// maxActiveTrips bounds concurrent trips per server. The paper's unlimited-
// capacity experiment peaks at 17 passengers; 64 gives ample headroom.
const maxActiveTrips = 64

// TrialInsert attempts to extend every valid schedule with the new trip,
// returning a Candidate holding the new tree, or ok=false if no valid
// augmented schedule exists. The receiver is left untouched either way
// (the paper's "we do this by generating a new prefix tree based on the
// existing one", §IV-B).
func (t *Tree) TrialInsert(trip TripState) (*Candidate, bool, error) {
	if t.ActiveTrips() >= maxActiveTrips {
		return nil, false, ErrTooManyTrips
	}
	idx := len(t.trips)
	t.trips = append(t.trips, trip)
	t.done = append(t.done, false)
	t.pickAt = append(t.pickAt, -1)
	defer func() {
		t.trips = t.trips[:idx]
		t.done = t.done[:idx]
		t.pickAt = t.pickAt[:idx]
	}()
	t.resetWalk()

	budget := t.opts.MaxTreeNodes
	if budget <= 0 {
		budget = math.MaxInt
	}
	if t.stale {
		// Lazy invalidation: prune dead branches now that a request
		// actually needs a consistent tree.
		t.revalidateLazy()
		t.resetWalk()
	}
	ins := &t.ins
	*ins = inserter{t: t, budget: budget}
	children, ok := ins.insertList(t.children, t.loc, t.odo, trip.Stops(idx))
	if ins.overBudget {
		return nil, false, fmt.Errorf("core: candidate tree exceeds %d nodes", t.opts.MaxTreeNodes)
	}
	if !ok {
		return nil, false, nil
	}
	cost := bestCost(children)
	return &Candidate{
		Cost:     cost,
		gen:      t.gen,
		trip:     trip,
		children: children,
	}, true, nil
}

// Commit adopts a candidate produced by TrialInsert on this tree since
// the tree's last mutation (a Commit, Advance, or SetLocation).
// Intervening TrialInserts are harmless — they leave the tree untouched,
// so any number of candidates may be held and one of them committed (the
// batch planner retains candidates across a whole flush this way).
// Committing a candidate that predates a mutation panics.
func (t *Tree) Commit(c *Candidate) {
	if c.gen != t.gen {
		panic("core: Commit with stale candidate")
	}
	t.gen++
	t.trips = append(t.trips, c.trip)
	t.done = append(t.done, false)
	t.pickAt = append(t.pickAt, -1)
	t.children = c.children
	t.refreshAll()
}

// refreshAll recomputes node counts and, if enabled, slack aggregates for
// the whole committed tree ("Only the chosen tree needs to have its ∆
// updated. This can be done through one tree traversal.", §IV-B).
func (t *Tree) refreshAll() {
	t.nodes = 0
	t.resetWalk()
	for _, c := range t.children {
		t.refresh(c, t.odo)
	}
}

func (t *Tree) refresh(n *treeNode, at float64) {
	t.nodes += 1
	arrive := at + n.leg
	ownLoose := math.Inf(1) // excludes waiting-trip dropoffs (window-aware)
	ownAll := math.Inf(1)
	for i, s := range n.stops {
		if i > 0 {
			arrive += n.intra[i-1]
		}
		d, windowed := t.slackOf(s, arrive)
		ownAll = math.Min(ownAll, d)
		if !windowed {
			ownLoose = math.Min(ownLoose, d)
		}
		t.visitStop(s, arrive)
	}
	childMax := math.Inf(-1)
	childMin := math.Inf(1)
	for _, c := range n.children {
		t.refresh(c, arrive)
		childMax = math.Max(childMax, c.dmax)
		childMin = math.Min(childMin, c.dmin)
	}
	for i := len(n.stops) - 1; i >= 0; i-- {
		t.unvisitStop(n.stops[i])
	}
	if len(n.children) == 0 {
		n.dmax = ownLoose
		n.dmin = ownAll
	} else {
		n.dmax = math.Min(ownLoose, childMax)
		n.dmin = math.Min(ownAll, childMin)
	}
}

// slackOf returns the remaining leniency of stop s when visited at odometer
// `arrive`, and whether the constraint window starts at the (branch-local)
// pickup rather than at the root — in which case a detour inserted above
// the pickup does not consume it.
func (t *Tree) slackOf(s Stop, arrive float64) (slack float64, windowed bool) {
	tr := &t.trips[s.Trip]
	if s.Kind == Pickup {
		return tr.WaitDeadline - arrive, false
	}
	if tr.OnBoard {
		return tr.DropDeadline - arrive, false
	}
	p := t.pickAt[s.Trip]
	if p < 0 {
		return math.Inf(-1), true // precedence violated; caller treats as infeasible
	}
	return p + tr.MaxRide - arrive, true
}

// feasibleStop reports whether stop s visited at odometer `arrive` meets its
// constraint given the current walk state.
func (t *Tree) feasibleStop(s Stop, arrive float64) bool {
	tr := &t.trips[s.Trip]
	if s.Kind == Pickup {
		if t.opts.Capacity > 0 && t.onboard >= t.opts.Capacity {
			return false
		}
		return arrive <= tr.WaitDeadline
	}
	if tr.OnBoard {
		return arrive <= tr.DropDeadline
	}
	p := t.pickAt[s.Trip]
	if p < 0 {
		return false
	}
	return arrive-p <= tr.MaxRide
}

// inserter carries the node budget across one TrialInsert.
type inserter struct {
	t          *Tree
	budget     int
	created    int
	overBudget bool
}

func (ins *inserter) alloc() bool {
	ins.created++
	if ins.created > ins.budget {
		ins.overBudget = true
		return false
	}
	return true
}

// insertList inserts the pending stops P into the schedule forest
// `children` whose parent position is `from` at absolute odometer `at`.
// It returns the new forest; ok=false means no feasible placement exists
// anywhere at or below this position (the subtree cannot accommodate the
// new trip and must be pruned by the caller).
func (ins *inserter) insertList(children []*treeNode, from roadnet.VertexID, at float64, P []Stop) ([]*treeNode, bool) {
	t := ins.t
	var out []*treeNode
	mergedAny := false

	// Hotspot merge and descent options, per existing child.
	for _, c := range children {
		if ins.overBudget {
			return nil, false
		}
		if t.opts.HotspotTheta > 0 && t.withinTheta(c, P[0].Vertex) {
			if m := ins.mergeInto(c, from, at, P); m != nil {
				out = append(out, m)
				mergedAny = true
				continue // merged: no alternative placements in this subtree
			}
			// Merge infeasible: fall through to normal descent.
		}
		// Descend: keep c, insert P at or below c's children.
		// Old stops keep their arrival times here; they were valid.
		arrive := at + c.leg
		for i, s := range c.stops {
			if i > 0 {
				arrive += c.intra[i-1]
			}
			t.visitStop(s, arrive)
		}
		nc, ok := ins.insertList(c.children, c.lastVertex(), arrive, P)
		for i := len(c.stops) - 1; i >= 0; i-- {
			t.unvisitStop(c.stops[i])
		}
		if ok && ins.alloc() {
			out = append(out, &treeNode{
				stops:    c.stops,
				leg:      c.leg,
				intra:    c.intra,
				intraSum: c.intraSum,
				children: nc,
				dmax:     c.dmax,
				dmin:     c.dmin,
			})
		}
	}

	// Create a new node for P[0] immediately at this position, unless a
	// hotspot merge already placed it here ("once the point is combined
	// with any node, we stop trying to insert it to any other edges").
	if !mergedAny && !ins.overBudget {
		if n := ins.newNodeHere(children, from, at, P); n != nil {
			out = append(out, n)
		}
	}
	return out, len(out) > 0
}

// newNodeHere builds a node for P[0] as the immediate next stop at this
// position: its children are detour-checked copies of the existing children
// (paper's copyNodes), into which the remaining points P[1:] are inserted.
func (ins *inserter) newNodeHere(children []*treeNode, from roadnet.VertexID, at float64, P []Stop) *treeNode {
	t := ins.t
	leg, exact := t.peek(from, P[0].Vertex)
	if !exact {
		if !t.feasibleStop(P[0], at+leg) {
			return nil // Lemma 2 at the bound: the exact leg arrives no earlier
		}
		leg = t.oracle.Dist(from, P[0].Vertex)
	}
	if leg == sp.Inf {
		return nil
	}
	arrive := at + leg
	if !t.feasibleStop(P[0], arrive) {
		// Lemma 2: once dT(l, ..., s_k) exceeds the deadline it only
		// grows deeper in the tree, but siblings/other subtrees may
		// still work; just reject this placement.
		return nil
	}
	if !ins.alloc() {
		return nil
	}
	n := &treeNode{stops: []Stop{P[0]}, leg: leg}
	if d, windowed := t.slackOf(P[0], arrive); windowed {
		n.dmax = math.Inf(1)
		n.dmin = d
	} else {
		n.dmax = d
		n.dmin = d
	}

	// The new stop is part of the branch state for everything below it:
	// the copied children must see its pickup both for the load count and
	// for the new trip's ride window.
	t.visitStop(P[0], arrive)
	defer t.unvisitStop(P[0])
	if len(children) > 0 {
		shifted := make([]*treeNode, 0, len(children))
		for _, c := range children {
			newLeg, detour, ok := t.shiftedLeg(P[0].Vertex, c, leg)
			if !ok {
				continue
			}
			if cc := ins.copyShifted(c, newLeg, arrive, detour); cc != nil {
				shifted = append(shifted, cc)
			}
		}
		if len(shifted) == 0 {
			return nil // every continuation died: placement infeasible
		}
		n.children = shifted
	}
	if len(P) > 1 {
		// The shifted intermediates are only inputs to the deeper insert;
		// the output forest contains fresh copies of the survivors.
		nc, ok := ins.insertList(n.children, P[0].Vertex, arrive, P[1:])
		if !ok {
			return nil
		}
		n.children = nc
	}
	// Aggregate slack over the final children.
	if len(n.children) > 0 {
		childMax := math.Inf(-1)
		childMin := math.Inf(1)
		for _, c := range n.children {
			childMax = math.Max(childMax, c.dmax)
			childMin = math.Min(childMin, c.dmin)
		}
		n.dmax = math.Min(n.dmax, childMax)
		n.dmin = math.Min(n.dmin, childMin)
	}
	return n
}

// shiftedLeg returns the leg from v to child c's first stop and the detour
// it imposes on c's subtree when c is re-hung below a new stop at v that
// already added `base` to the route. ok=false drops the child: its first
// stop is unreachable, or (slack variant) the detour exceeds what any
// branch below tolerates (Theorem 1) — decided at the landmark bound when
// that already exceeds it.
func (t *Tree) shiftedLeg(v roadnet.VertexID, c *treeNode, base float64) (newLeg, detour float64, ok bool) {
	w := c.stops[0].Vertex
	if !t.opts.Slack {
		newLeg = t.oracle.Dist(v, w)
		return newLeg, base + newLeg - c.leg, newLeg != sp.Inf
	}
	newLeg, exact := t.peek(v, w)
	if !exact {
		if base+newLeg-c.leg > c.dmax {
			return 0, 0, false
		}
		newLeg = t.oracle.Dist(v, w)
	}
	if newLeg == sp.Inf {
		return 0, 0, false
	}
	detour = base + newLeg - c.leg
	return newLeg, detour, !(detour > c.dmax)
}

// copyShifted deep-copies subtree c under a parent whose last stop is at
// odometer `at`, reached via a new leg of length newLeg, so that every stop
// below arrives `detour` later than before (detour may be negative). Stops
// are rechecked exactly; branches that no longer satisfy their constraints
// are pruned. Returns nil if no complete branch survives.
func (ins *inserter) copyShifted(c *treeNode, newLeg, at, detour float64) *treeNode {
	t := ins.t
	if !ins.alloc() {
		return nil
	}
	// Fast path (slack variant): if the detour is within the subtree's
	// all-branches tolerance, the entire subtree survives verbatim. With a
	// finite capacity this shortcut is unsound — a pickup inserted above
	// raises the load throughout the copied subtree regardless of detour —
	// so it applies only to unlimited-capacity vehicles.
	if t.opts.Slack && t.opts.Capacity == 0 && detour <= c.dmin {
		return ins.plainCopy(c, newLeg, detour)
	}
	arrive := at + newLeg
	var visited []Stop
	okStops := true
	for i, s := range c.stops {
		if i > 0 {
			arrive += c.intra[i-1]
		}
		if !t.feasibleStop(s, arrive) {
			okStops = false
			break
		}
		t.visitStop(s, arrive)
		visited = append(visited, s)
	}
	var nn *treeNode
	if okStops {
		nn = &treeNode{
			stops:    c.stops,
			leg:      newLeg,
			intra:    c.intra,
			intraSum: c.intraSum,
			dmax:     c.dmax - detour,
			dmin:     c.dmin - detour,
		}
		if len(c.children) > 0 {
			for _, gc := range c.children {
				if t.opts.Slack && detour > gc.dmax {
					continue
				}
				if cc := ins.copyShifted(gc, gc.leg, arrive, detour); cc != nil {
					nn.children = append(nn.children, cc)
				}
			}
			if len(nn.children) == 0 {
				nn = nil // incomplete schedules are invalid
			}
		}
	}
	for i := len(visited) - 1; i >= 0; i-- {
		t.unvisitStop(visited[i])
	}
	return nn
}

// plainCopy duplicates a subtree without constraint checks (used when the
// slack bound certifies every branch survives the detour).
func (ins *inserter) plainCopy(c *treeNode, newLeg, detour float64) *treeNode {
	nn := &treeNode{
		stops:    c.stops,
		leg:      newLeg,
		intra:    c.intra,
		intraSum: c.intraSum,
		dmax:     c.dmax - detour,
		dmin:     c.dmin - detour,
	}
	for _, gc := range c.children {
		if !ins.alloc() {
			return nil
		}
		cc := ins.plainCopy(gc, gc.leg, detour)
		if cc == nil { // a deeper copy ran over budget
			return nil
		}
		nn.children = append(nn.children, cc)
	}
	return nn
}

// withinTheta reports whether v is within the hotspot radius of every stop
// already in node c (paper §V: "the newly inserted point needs to be within
// θ to all the points of the hot spot").
func (t *Tree) withinTheta(c *treeNode, v roadnet.VertexID) bool {
	for _, s := range c.stops {
		d, exact := t.peek(s.Vertex, v)
		if !exact && d <= t.opts.HotspotTheta {
			d = t.oracle.Dist(s.Vertex, v)
		}
		if d > t.opts.HotspotTheta {
			return false
		}
	}
	return true
}

// mergeInto appends P[0] to the stops of child c (hotspot clustering) and
// re-validates the subtree under the induced detour, then inserts the
// remaining points P[1:] below. Returns nil if the merged subtree is
// infeasible.
func (ins *inserter) mergeInto(c *treeNode, from roadnet.VertexID, at float64, P []Stop) *treeNode {
	t := ins.t
	oldLast := c.lastVertex()
	add := t.oracle.Dist(oldLast, P[0].Vertex)
	if add == sp.Inf {
		return nil
	}
	if !ins.alloc() {
		return nil
	}
	// Validate c's own stops (unchanged arrivals) and the appended stop.
	arrive := at + c.leg
	var visited []Stop
	defer func() {
		for i := len(visited) - 1; i >= 0; i-- {
			t.unvisitStop(visited[i])
		}
	}()
	for i, s := range c.stops {
		if i > 0 {
			arrive += c.intra[i-1]
		}
		t.visitStop(s, arrive)
		visited = append(visited, s)
	}
	arrive += add
	if !t.feasibleStop(P[0], arrive) {
		return nil
	}
	stops := make([]Stop, len(c.stops)+1)
	copy(stops, c.stops)
	stops[len(c.stops)] = P[0]
	intra := make([]float64, len(c.intra)+1)
	copy(intra, c.intra)
	intra[len(c.intra)] = add
	nn := &treeNode{stops: stops, leg: c.leg, intra: intra, intraSum: c.intraSum + add}
	t.visitStop(P[0], arrive)
	visited = append(visited, P[0])
	// Children now depart from P[0].Vertex instead of oldLast and are
	// delayed by the detour through the merged stop.
	if len(c.children) > 0 {
		for _, gc := range c.children {
			newLeg, detour, ok := t.shiftedLeg(P[0].Vertex, gc, add)
			if !ok {
				continue
			}
			if cc := ins.copyShifted(gc, newLeg, arrive, detour); cc != nil {
				nn.children = append(nn.children, cc)
			}
		}
		if len(nn.children) == 0 {
			return nil
		}
	}
	if len(P) > 1 {
		nc, ok := ins.insertList(nn.children, P[0].Vertex, arrive, P[1:])
		if !ok {
			return nil
		}
		nn.children = nc
	}
	return nn
}

// bestCost returns the minimum total cost over all branches of the forest
// without materializing stop orders (the hot path of TrialInsert).
func bestCost(children []*treeNode) float64 {
	if len(children) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, c := range children {
		if total := c.leg + c.intraSum + bestCost(c.children); total < best {
			best = total
		}
	}
	return best
}

// bestSchedule returns the minimum total cost over all branches of the
// forest and the corresponding stop sequence. Cost is measured from the
// forest's parent position (legs include the first hop).
func bestSchedule(children []*treeNode, prefix []Stop) (float64, []Stop) {
	if len(children) == 0 {
		return 0, append([]Stop(nil), prefix...)
	}
	best := math.Inf(1)
	var bestOrder []Stop
	for _, c := range children {
		sub, order := bestSchedule(c.children, append(prefix, c.stops...))
		total := c.leg + c.intraSum + sub
		if total < best {
			best = total
			bestOrder = order
		}
	}
	return best, bestOrder
}

// Best returns the cost and stop order of the currently cheapest schedule,
// or ok=false when the tree is empty.
func (t *Tree) Best() (cost float64, order []Stop, ok bool) {
	if t.stale {
		t.revalidateLazy()
	}
	if t.Empty() {
		return 0, nil, false
	}
	cost, order = bestSchedule(t.children, nil)
	return cost, order, true
}

// NextStops returns the stops of the first node of the cheapest schedule —
// the server's immediate target(s) — or nil if the tree is empty.
func (t *Tree) NextStops() []Stop {
	c := t.bestChild()
	if c == nil {
		return nil
	}
	return c.stops
}

func (t *Tree) bestChild() *treeNode {
	var best *treeNode
	bc := math.Inf(1)
	for _, c := range t.children {
		if total := c.leg + c.intraSum + bestCost(c.children); total < bc {
			bc = total
			best = c
		}
	}
	return best
}

// Served reports one stop visited by Advance together with the odometer
// reading at which it was served.
type Served struct {
	Stop Stop
	Odo  float64
	Trip TripState // state after serving (pickups show their DropDeadline)
}

// Advance records that the server has reached and served the first node of
// its chosen (cheapest) schedule: trips picked up there become onboard,
// trips dropped off complete, the subtree rooted at that node becomes the
// new forest, and all sibling schedules are pruned (Lemma 1). It returns
// the stops served with their arrival odometers. The server's location and
// odometer move to the node's last stop.
func (t *Tree) Advance() ([]Served, error) {
	if t.stale {
		// Lazy invalidation: dead sibling branches must not be chosen
		// as the schedule to execute.
		t.revalidateLazy()
	}
	c := t.bestChild()
	if c == nil {
		return nil, errors.New("core: Advance on empty tree")
	}
	t.gen++
	served := make([]Served, 0, len(c.stops))
	arrive := t.odo + c.leg
	for i, s := range c.stops {
		if i > 0 {
			arrive += c.intra[i-1]
		}
		tr := &t.trips[s.Trip]
		switch s.Kind {
		case Pickup:
			tr.MarkPickedUp(arrive)
		case Dropoff:
			t.done[s.Trip] = true
		}
		served = append(served, Served{Stop: s, Odo: arrive, Trip: *tr})
	}
	t.odo = arrive
	t.loc = c.lastVertex()
	t.children = c.children // sibling schedules are pruned (Lemma 1)
	if t.Empty() {
		// All trips served: recycle the slot arrays.
		t.trips = t.trips[:0]
		t.done = t.done[:0]
		t.pickAt = t.pickAt[:0]
		t.nodes = 0
	} else {
		t.refreshAll()
	}
	return served, nil
}

// SetLocation moves the server to vertex v with the given odometer reading
// (odo must be non-decreasing). Root legs are recomputed; with eager
// invalidation (the default), subtrees whose leg grew are re-validated and
// pruned immediately, while lazy invalidation defers that work to the next
// TrialInsert (paper §IV-A). The branch the server is following shrinks and
// is never pruned.
func (t *Tree) SetLocation(v roadnet.VertexID, odo float64) {
	if v == t.loc && odo == t.odo {
		return
	}
	t.gen++
	moved := odo - t.odo
	t.loc = v
	t.odo = odo
	if t.Empty() {
		return
	}
	if t.opts.LazyInvalidation {
		// Just retarget the root legs so Best/Advance keep working;
		// stale (possibly invalid) branches stay until the next request
		// forces a full revalidation.
		for _, c := range t.children {
			if d := t.oracle.Dist(v, c.stops[0].Vertex); d != sp.Inf {
				c.leg = d
			} else {
				// Degraded lookup (a bounded-retry oracle exhausted its
				// budget), not true unreachability: in a static network a
				// committed stop cannot become unreachable by the vehicle
				// moving toward it. Estimate the leg as "previous minus
				// distance traveled" — exact for the branch the server is
				// following, conservative-enough for the alternatives,
				// and corrected by the next successful lookup — instead
				// of corrupting the schedule with an infinite leg.
				if c.leg -= moved; c.leg < 0 {
					c.leg = 0
				}
			}
		}
		t.stale = true
		return
	}
	t.pruneEager(moved)
}

// pruneEager re-validates the root children against the current location
// using the detour shortcuts, which are sound because eager trees keep
// their legs and slack aggregates fresh on every movement.
func (t *Tree) pruneEager(moved float64) {
	t.resetWalk()
	ins := &t.ins
	*ins = inserter{t: t, budget: math.MaxInt}
	kept := t.children[:0]
	for _, c := range t.children {
		newLeg := t.oracle.Dist(t.loc, c.stops[0].Vertex)
		if newLeg == sp.Inf {
			// Degraded lookup, not true unreachability (see SetLocation's
			// lazy arm): this branch holds committed trips, so keep it on
			// the travel-adjusted previous leg rather than deleting the
			// schedule. The next movement re-tries the lookup.
			if c.leg -= moved; c.leg < 0 {
				c.leg = 0
			}
			kept = append(kept, c)
			continue
		}
		detour := newLeg + moved - c.leg // how much later every stop below c arrives
		if detour <= 0 {
			// Arrivals only got earlier: still valid.
			c.leg = newLeg
			kept = append(kept, c)
			continue
		}
		if cc := ins.copyShifted(c, newLeg, t.odo, detour); cc != nil {
			kept = append(kept, cc) // c is replaced by its shifted copy
		}
	}
	t.children = kept
	t.refreshAll()
}

// revalidateLazy walks the whole tree with exact constraint checks and no
// slack shortcuts (the cached aggregates are stale after deferred
// movement), pruning branches that died since the last revalidation.
func (t *Tree) revalidateLazy() {
	t.resetWalk()
	kept := t.children[:0]
	for _, c := range t.children {
		if cc := t.revalidateNode(c, t.odo); cc != nil {
			kept = append(kept, cc)
		}
	}
	t.children = kept
	t.stale = false
	t.refreshAll()
}

// revalidateNode checks node n and its subtree at absolute odometer `at`
// (arrival of the parent's last stop), returning n with dead descendants
// pruned, or nil if no complete branch survives. It mutates in place — the
// lazy tree is not shared with any candidate.
func (t *Tree) revalidateNode(n *treeNode, at float64) *treeNode {
	arrive := at + n.leg
	var visited []Stop
	defer func() {
		for i := len(visited) - 1; i >= 0; i-- {
			t.unvisitStop(visited[i])
		}
	}()
	for i, s := range n.stops {
		if i > 0 {
			arrive += n.intra[i-1]
		}
		if !t.feasibleStop(s, arrive) {
			return nil
		}
		t.visitStop(s, arrive)
		visited = append(visited, s)
	}
	if len(n.children) == 0 {
		return n
	}
	kept := n.children[:0]
	for _, c := range n.children {
		if cc := t.revalidateNode(c, arrive); cc != nil {
			kept = append(kept, cc)
		}
	}
	n.children = kept
	if len(n.children) == 0 {
		return nil
	}
	return n
}

// Validate walks every branch and verifies that it is a valid schedule:
// all pending stops appear exactly once, pickups precede dropoffs, and all
// waiting/service constraints hold. Used by tests and available for
// paranoia checks in simulations.
func (t *Tree) Validate() error {
	if t.stale {
		// A lazily invalidated tree legitimately carries dead branches
		// between requests; validate the pruned view.
		t.revalidateLazy()
	}
	if t.Empty() {
		if t.ActiveTrips() != 0 {
			return fmt.Errorf("core: empty tree with %d active trips", t.ActiveTrips())
		}
		return nil
	}
	want := make(map[Stop]bool)
	for i := range t.trips {
		if t.done[i] {
			continue
		}
		for _, s := range t.trips[i].Stops(i) {
			want[s] = true
		}
	}
	t.resetWalk()
	seen := make(map[Stop]bool)
	var walk func(n *treeNode, at float64) error
	walk = func(n *treeNode, at float64) error {
		arrive := at + n.leg
		var visited []Stop
		defer func() {
			for i := len(visited) - 1; i >= 0; i-- {
				t.unvisitStop(visited[i])
			}
		}()
		for i, s := range n.stops {
			if i > 0 {
				arrive += n.intra[i-1]
			}
			if !want[s] {
				return fmt.Errorf("core: branch contains unexpected stop %v", s)
			}
			if seen[s] {
				return fmt.Errorf("core: stop %v repeated on a branch", s)
			}
			if !t.feasibleStop(s, arrive) {
				return fmt.Errorf("core: stop %v infeasible at odo %.2f", s, arrive)
			}
			seen[s] = true
			t.visitStop(s, arrive)
			visited = append(visited, s)
		}
		if len(n.children) == 0 {
			if len(seen) != len(want) {
				return fmt.Errorf("core: leaf schedule has %d stops, want %d", len(seen), len(want))
			}
		}
		for _, c := range n.children {
			if err := walk(c, arrive); err != nil {
				return err
			}
		}
		for _, s := range n.stops {
			delete(seen, s)
		}
		return nil
	}
	for _, c := range t.children {
		if err := walk(c, t.odo); err != nil {
			return err
		}
	}
	return nil
}
