package core

import (
	"math"
	"sort"

	"repro/internal/sp"
)

// BruteForce enumerates all stop permutations respecting pickup-before-
// dropoff precedence, abandoning a prefix as soon as a constraint is
// violated. It keeps the cheapest complete schedule. This is the paper's
// baseline (§II): "We enumerate all of the permutations and then check the
// constraints" — constraint checks let it "stop earlier on average", but it
// performs no cost-bound pruning (that is what distinguishes it from
// branch-and-bound in the evaluation).
type BruteForce struct {
	oracle sp.Oracle
}

// NewBruteForce returns a brute-force scheduler using the given oracle.
func NewBruteForce(oracle sp.Oracle) *BruteForce { return &BruteForce{oracle: oracle} }

// Name implements Scheduler.
func (b *BruteForce) Name() string { return "bruteforce" }

// MaxStops caps the instance size accepted by the exhaustive schedulers;
// beyond this the search space is astronomically large.
const MaxStops = 64

// Schedule implements Scheduler.
func (b *BruteForce) Schedule(inst *Instance) Result {
	g, res := newStopGraph(inst, b.oracle)
	if g == nil {
		return res
	}
	s := newBFSearch(g, b.oracle, false)
	s.rec(0, inst.Odo)
	if math.IsInf(s.best, 1) {
		return Result{}
	}
	return g.result(s.bestSeq, s.best-inst.Odo)
}

// bfSearch walks stop permutations depth first, abandoning a prefix as soon
// as its last stop violates a constraint, and keeps the cheapest complete
// schedule. With nearestFirst it tries the closest stop first and stops at
// the first complete schedule instead: the MIP scheduler's warm start.
type bfSearch struct {
	g            *stopGraph
	w            *walker
	used         []bool
	seq          []int
	best         float64 // best complete arrival odometer
	bestSeq      []int
	nearestFirst bool
}

func newBFSearch(g *stopGraph, oracle sp.Oracle, nearestFirst bool) *bfSearch {
	return &bfSearch{g: g, w: newWalker(g.inst, oracle), used: make([]bool, len(g.stops)),
		seq: make([]int, 0, len(g.stops)), best: math.Inf(1), nearestFirst: nearestFirst}
}

// rec extends the permutation from graph point `last` (0 = origin) at
// absolute odometer `at`, and reports whether the search is done.
func (s *bfSearch) rec(last int, at float64) bool {
	if len(s.seq) == len(s.g.stops) {
		if at < s.best {
			s.best = at
			s.bestSeq = append(s.bestSeq[:0], s.seq...)
		}
		return s.nearestFirst
	}
	var nearest []int // stop indices by distance from last, nearestFirst only
	if s.nearestFirst {
		nearest = make([]int, len(s.g.stops))
		for i := range nearest {
			nearest[i] = i
		}
		sort.Slice(nearest, func(a, b int) bool { return s.g.dist[last][nearest[a]+1] < s.g.dist[last][nearest[b]+1] })
	}
	for i := range s.g.stops {
		si := i
		if nearest != nil {
			si = nearest[i]
		}
		if s.used[si] {
			continue
		}
		stop := s.g.stops[si]
		nat := at + s.g.dist[last][si+1]
		if !s.w.feasibleAt(stop, nat) { // deadlines, capacity and precedence
			continue
		}
		s.used[si] = true
		s.seq = append(s.seq, si)
		s.w.noteVisit(stop, nat)
		done := s.rec(si+1, nat)
		s.w.unnoteVisit(stop)
		s.seq = s.seq[:len(s.seq)-1]
		s.used[si] = false
		if done {
			return true
		}
	}
	return false
}
