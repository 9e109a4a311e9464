package core

import (
	"container/heap"
	"math"

	"repro/internal/sp"
)

// BranchBound is the best-first branch-and-bound scheduler of paper §III:
// it "systematically enumerates all candidate schedules", maintaining for
// each partial schedule the lower bound
//
//	dT(r, x_k) + Σ (minimum-cost edge incident to each unscheduled node)
//
// and "first expands the partial candidate with the lowest lower bound".
// Partial schedules whose bound exceeds the best complete schedule found so
// far are pruned.
type BranchBound struct {
	oracle sp.Oracle
}

// NewBranchBound returns a branch-and-bound scheduler using the given oracle.
func NewBranchBound(oracle sp.Oracle) *BranchBound { return &BranchBound{oracle: oracle} }

// Name implements Scheduler.
func (b *BranchBound) Name() string { return "branchbound" }

// bbNode is a partial schedule in the search tree.
type bbNode struct {
	seq   []int   // stop indices in visit order
	used  uint64  // bitmask of seq
	at    float64 // absolute odometer after the last stop
	bound float64 // at + Σ minIncident of remaining stops
	last  int     // graph point index (0 = origin)
}

type bbQueue []*bbNode

func (q bbQueue) Len() int           { return len(q) }
func (q bbQueue) Less(i, j int) bool { return q[i].bound < q[j].bound }
func (q bbQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *bbQueue) Push(x any)        { *q = append(*q, x.(*bbNode)) }
func (q *bbQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Schedule implements Scheduler.
func (b *BranchBound) Schedule(inst *Instance) Result {
	g, res := newStopGraph(inst, b.oracle)
	if g == nil {
		return res
	}
	ns := len(g.stops)
	w := newWalker(inst, b.oracle)

	remainingBound := func(used uint64) float64 {
		sum := 0.0
		for i := 0; i < ns; i++ {
			if used&(1<<uint(i)) == 0 {
				sum += g.minIncident[i+1]
			}
		}
		return sum
	}

	best := math.Inf(1)
	var bestSeq []int

	q := &bbQueue{}
	heap.Init(q)
	heap.Push(q, &bbNode{at: inst.Odo, bound: inst.Odo + remainingBound(0), last: 0})

	for q.Len() > 0 {
		node := heap.Pop(q).(*bbNode)
		if node.bound >= best {
			break // best-first: nothing cheaper remains
		}
		if len(node.seq) == ns {
			if node.at < best {
				best = node.at
				bestSeq = node.seq
			}
			continue
		}
		// Rebuild the branch state for this partial schedule.
		w.resetBranch()
		at := inst.Odo
		last := 0
		for _, si := range node.seq {
			at += g.dist[last][si+1]
			w.noteVisit(g.stops[si], at)
			last = si + 1
		}
		for si := 0; si < ns; si++ {
			if node.used&(1<<uint(si)) != 0 {
				continue
			}
			stop := g.stops[si]
			nat := node.at + g.dist[node.last][si+1]
			if !w.feasibleAt(stop, nat) { // deadlines, capacity and precedence
				continue
			}
			used := node.used | (1 << uint(si))
			bound := nat + remainingBound(used)
			if bound >= best {
				continue
			}
			seq := make([]int, len(node.seq)+1)
			copy(seq, node.seq)
			seq[len(node.seq)] = si
			heap.Push(q, &bbNode{seq: seq, used: used, at: nat, bound: bound, last: si + 1})
		}
	}
	if math.IsInf(best, 1) {
		return Result{}
	}
	return g.result(bestSeq, best-inst.Odo)
}
