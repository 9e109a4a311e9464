package core

import (
	"repro/internal/sp"
)

// TreeScheduler adapts the kinetic tree to the Scheduler interface: it
// builds a fresh tree for the instance by inserting its trips one at a time.
// Because the tree materializes every valid schedule, the resulting best
// branch is the optimal schedule (exactly, for the basic and slack variants;
// within the 2(m+1)θ bound for the hotspot variant), which makes this
// adapter the cross-validation target against the brute-force, branch-and-
// bound, and MIP schedulers.
type TreeScheduler struct {
	oracle sp.Oracle
	opts   TreeOptions
}

// NewTreeScheduler returns a kinetic-tree scheduler with the given variant
// options.
func NewTreeScheduler(oracle sp.Oracle, opts TreeOptions) *TreeScheduler {
	return &TreeScheduler{oracle: oracle, opts: opts}
}

// Name implements Scheduler.
func (s *TreeScheduler) Name() string {
	switch {
	case s.opts.HotspotTheta > 0:
		return "ktree-hotspot"
	case s.opts.Slack:
		return "ktree-slack"
	default:
		return "ktree"
	}
}

// Schedule implements Scheduler.
func (s *TreeScheduler) Schedule(inst *Instance) Result {
	tree, perm, ok := s.Build(inst)
	if !ok {
		return Result{}
	}
	cost, order, ok := tree.Best()
	if !ok {
		// No trips pending: the empty schedule is trivially optimal.
		return Result{OK: true, Exact: true}
	}
	// Map tree-internal trip slots back to instance indices.
	for i := range order {
		order[i].Trip = perm[order[i].Trip]
	}
	return Result{OK: true, Cost: cost, Order: order, Exact: s.opts.HotspotTheta == 0}
}

// Build grows a fresh tree for the instance by inserting its trips one at a
// time, onboard trips first: they raise the vehicle's base load, which the
// capacity checks of subsequently inserted pickups must observe (in the live
// system passengers board strictly before later requests arrive, so this is
// the only order that occurs). perm maps tree trip slots to instance
// indices. ok is false when some trip has no valid insertion.
func (s *TreeScheduler) Build(inst *Instance) (tree *Tree, perm []int, ok bool) {
	opts := s.opts
	opts.Capacity = inst.Capacity
	tree = NewTree(s.oracle, inst.Origin, inst.Odo, opts)
	perm = make([]int, 0, len(inst.Trips))
	for i := range inst.Trips {
		if inst.Trips[i].OnBoard {
			perm = append(perm, i)
		}
	}
	for i := range inst.Trips {
		if !inst.Trips[i].OnBoard {
			perm = append(perm, i)
		}
	}
	for _, i := range perm {
		cand, ok, err := tree.TrialInsert(inst.Trips[i])
		if err != nil || !ok {
			return nil, nil, false
		}
		tree.Commit(cand)
	}
	return tree, perm, true
}
