package exp

import (
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// FourAlgos are the contenders of the §VI-A comparison, in table order.
// They are timed on replayed instances (Replay), never run as a fleet.
var FourAlgos = []string{"ktree-slack", "branchbound", "bruteforce", "mip"}

// contenders times each FourAlgos entry on one instance whose distances are
// already resolved into tab, reporting the timed span and feasibility.
var contenders = []func(tab sp.Oracle, in *core.Instance) (time.Duration, bool){
	replayTree,
	timeSchedule(func(o sp.Oracle) core.Scheduler { return core.NewBranchBound(o) }),
	timeSchedule(func(o sp.Oracle) core.Scheduler { return core.NewBruteForce(o) }),
	timeSchedule(func(o sp.Oracle) core.Scheduler {
		// Bound MIP effort per instance so loose-constraint sweeps finish;
		// the warm-started incumbent keeps answers valid (Exact=false).
		m := core.NewMIPScheduler(o, 5000)
		m.SetTimeBudget(20 * time.Millisecond)
		return m
	}),
}

// Replay times every FourAlgos scheduler on the same instances, captured
// from a slack-tree run through sim.Config.Capture (the new request's trip
// last in each). This is the paper's §VI-A comparison with the fleet held
// fixed: every scheduler answers the identical question.
//
// Each instance's vertices are first resolved on oracle into a small
// distance table, in a step timed apart and returned as resolve, so the
// schedulers are timed on scheduling alone: the slack tree on one
// TrialInsert of the new trip into a tree built untimed from the instance's
// other trips, brute force, branch-and-bound and MIP on Schedule.
//
// The result holds one Metrics per FourAlgos name: ART by the vehicle's
// scheduled-request count, ACRT as each request's sum over its instances
// (averaged over requests, the run's request count), and a request matched
// when any of its instances is feasible.
func Replay(oracle sp.Oracle, insts []*core.Instance, requests int) (metrics map[string]*sim.Metrics, resolve time.Duration) {
	ms := make([]*sim.Metrics, len(FourAlgos))
	for i := range ms {
		ms[i] = sim.NewMetrics()
		ms[i].Requests = requests
	}
	type request struct {
		spent   []time.Duration // per contender
		matched []bool
	}
	var order []*request // in first-seen order
	byID := make(map[int64]*request)
	for _, in := range insts {
		id := in.Trips[len(in.Trips)-1].ID
		r := byID[id]
		if r == nil {
			r = &request{spent: make([]time.Duration, len(ms)), matched: make([]bool, len(ms))}
			byID[id] = r
			order = append(order, r)
		}
		start := time.Now()
		tab := resolveTable(oracle, in)
		resolve += time.Since(start)
		for i, run := range contenders {
			d, ok := run(tab, in)
			ms[i].AddART(len(in.Trips)-1, d)
			if !ok {
				ms[i].TrialFailures++
			}
			r.spent[i] += d
			r.matched[i] = r.matched[i] || ok
		}
	}
	metrics = make(map[string]*sim.Metrics, len(ms))
	for i, m := range ms {
		for _, r := range order {
			m.AddACRT(r.spent[i])
			if r.matched[i] {
				m.Matched++
			}
		}
		m.Rejected = m.Requests - m.Matched
		metrics[FourAlgos[i]] = m
	}
	return metrics, resolve
}

// replayTree builds the slack tree of every trip but the last, untimed, and
// times the last one's TrialInsert: the work the live engine does per trial.
func replayTree(tab sp.Oracle, in *core.Instance) (time.Duration, bool) {
	k := len(in.Trips) - 1
	start := time.Now()
	tree, _, ok := core.NewTreeScheduler(tab, core.TreeOptions{Slack: true}).Build(&core.Instance{
		Origin: in.Origin, Odo: in.Odo, Capacity: in.Capacity, Trips: in.Trips[:k],
	})
	if !ok {
		// Trips without a valid schedule stay without one when a trip is
		// added: the failed build is the tree's whole answer.
		return time.Since(start), false
	}
	start = time.Now()
	_, ok, err := tree.TrialInsert(in.Trips[k])
	return time.Since(start), ok && err == nil
}

// timeSchedule times one Schedule call of a scheduler built on tab.
func timeSchedule(newSched func(sp.Oracle) core.Scheduler) func(sp.Oracle, *core.Instance) (time.Duration, bool) {
	return func(tab sp.Oracle, in *core.Instance) (time.Duration, bool) {
		s := newSched(tab)
		start := time.Now()
		res := s.Schedule(in)
		return time.Since(start), res.OK
	}
}

// table is an sp.Oracle over one instance's vertices only — the origin and
// every trip's pickup and dropoff — with all pairwise distances resolved
// up front.
type table map[[2]roadnet.VertexID]float64

func resolveTable(oracle sp.Oracle, in *core.Instance) table {
	verts := []roadnet.VertexID{in.Origin}
	for _, tr := range in.Trips {
		verts = append(verts, tr.Pickup, tr.Dropoff)
	}
	t := make(table, len(verts)*len(verts))
	for _, u := range verts {
		for _, v := range verts {
			if _, ok := t[[2]roadnet.VertexID{u, v}]; !ok {
				t[[2]roadnet.VertexID{u, v}] = oracle.Dist(u, v)
			}
		}
	}
	return t
}

// Dist implements sp.Oracle; both vertices must belong to the instance.
func (t table) Dist(u, v roadnet.VertexID) float64 {
	d, ok := t[[2]roadnet.VertexID{u, v}]
	if !ok {
		panic("exp: replayed scheduler asked for a distance outside its instance")
	}
	return d
}

// Path implements sp.Oracle. Scheduling needs distances only.
func (table) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	panic("exp: replayed schedulers need distances only")
}
