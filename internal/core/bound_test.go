package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// boundOracle is the oracle of one tree in TestLowerBoundChangesNothing: the
// test world's exact distances, except that a fixed pseudo-random eighth of
// all pairs answers +Inf the way a degraded lookup does (when degrade is
// set). The degraded pairs depend only on the unordered pair, so two trees
// asking in different orders and amounts see the same answers. It counts
// the lookups that reach it.
type boundOracle struct {
	inner   sp.Oracle
	degrade bool
	dists   int
}

func pairHash(u, v roadnet.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	x := uint64(u)<<32 | uint64(v)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func (o *boundOracle) answer(u, v roadnet.VertexID) float64 {
	if o.degrade && u != v && pairHash(u, v)%8 == 0 {
		return sp.Inf
	}
	return o.inner.Dist(u, v)
}

func (o *boundOracle) Dist(u, v roadnet.VertexID) float64 {
	o.dists++
	return o.answer(u, v)
}

func (o *boundOracle) Path(u, v roadnet.VertexID) []roadnet.VertexID { return o.inner.Path(u, v) }

// heldOracle adds a table, the way cache.SharedWorker has one: Probe
// serves a fixed half of all pairs without counting a lookup.
type heldOracle struct{ *boundOracle }

func (o heldOracle) Probe(u, v roadnet.VertexID) (float64, bool) {
	if pairHash(u, v)%2 == 0 {
		return o.answer(u, v), true
	}
	return 0, false
}

// wrapped is an outer oracle layer (like a timing or fault facade); the
// tree must find the table underneath it through sp.Unwrap.
type wrapped struct{ sp.Oracle }

func (w wrapped) Unwrap() sp.Oracle { return w.Oracle }

// forestSize counts a candidate forest's nodes.
func forestSize(children []*treeNode) int {
	n := 0
	for _, c := range children {
		n += c.size()
	}
	return n
}

// TestLowerBoundChangesNothing drives two trees in lockstep through random
// requests, commits, advances and moves — one plain, one given the landmark
// bound (TreeOptions.Lower) — and requires every trial to come out the
// same: success or failure, the over-budget error, the cost to the bit, the
// best schedule and the candidate's node count. It covers the basic, slack
// and hotspot variants at capacity 0 and 4, a node budget small enough to
// trip (the bound must not change what is allocated), oracles that answer
// +Inf for some pairs, and an oracle whose table serves half the pairs
// through an outer wrapper. The bounded tree must also have searched less,
// or the test exercised nothing.
func TestLowerBoundChangesNothing(t *testing.T) {
	w := newTestWorld(t, 31)
	lower := sp.NewALT(w.g, 8)
	variants := []struct {
		name string
		opts TreeOptions
	}{
		{"basic-cap0", TreeOptions{}},
		{"basic-cap4", TreeOptions{Capacity: 4}},
		{"slack-cap0", TreeOptions{Slack: true}},
		{"slack-cap4", TreeOptions{Slack: true, Capacity: 4}},
		{"slack-budget", TreeOptions{Slack: true, Capacity: 4, MaxTreeNodes: 40}},
		{"hotspot-cap0", TreeOptions{Slack: true, HotspotTheta: 800}},
		{"hotspot-cap4", TreeOptions{Slack: true, HotspotTheta: 800, Capacity: 4}},
	}
	oracles := []struct {
		name          string
		degrade, held bool
	}{{"exact", false, false}, {"inf", true, false}, {"held", false, true}, {"held-inf", true, true}}
	for _, variant := range variants {
		for _, oc := range oracles {
			t.Run(variant.name+"/"+oc.name, func(t *testing.T) {
				plainO := &boundOracle{inner: w.oracle, degrade: oc.degrade}
				boundO := &boundOracle{inner: w.oracle, degrade: oc.degrade}
				var bounded sp.Oracle = boundO
				if oc.held {
					bounded = wrapped{heldOracle{boundO}}
				}
				opts := variant.opts
				opts.Lower = lower
				n := int32(w.g.N())
				rng := rand.New(rand.NewSource(32))
				start := roadnet.VertexID(rng.Int31n(n))
				plain := NewTree(plainO, start, 0, variant.opts)
				tree := NewTree(bounded, start, 0, opts)
				trials, accepted, overBudget, maxNodes := 0, 0, 0, 0
				for step := 0; step < 600; step++ {
					switch op := rng.Intn(20); {
					case op < 14:
						s, e := roadnet.VertexID(rng.Int31n(n)), roadnet.VertexID(rng.Int31n(n))
						if s == e {
							continue
						}
						trip, err := NewTripState(int64(step), s, e, 2000+rng.Float64()*4000, 0.2+rng.Float64()*0.6, plain.Odo(), w.oracle)
						if err != nil {
							t.Fatal(err)
						}
						trials++
						pc, pok, perr := plain.TrialInsert(trip)
						bc, bok, berr := tree.TrialInsert(trip)
						if pok != bok || (perr == nil) != (berr == nil) {
							t.Fatalf("step %d: plain tree (ok %v, err %v), bounded (ok %v, err %v)", step, pok, perr, bok, berr)
						}
						if perr != nil {
							overBudget++
						}
						if !pok {
							continue
						}
						if math.Float64bits(pc.Cost) != math.Float64bits(bc.Cost) {
							t.Fatalf("step %d: cost %v plain, %v bounded", step, pc.Cost, bc.Cost)
						}
						if pn, bn := forestSize(pc.children), forestSize(bc.children); pn != bn {
							t.Fatalf("step %d: candidate has %d nodes plain, %d bounded", step, pn, bn)
						}
						_, porder := bestSchedule(pc.children, nil)
						_, border := bestSchedule(bc.children, nil)
						if !reflect.DeepEqual(porder, border) {
							t.Fatalf("step %d: best schedule %v plain, %v bounded", step, porder, border)
						}
						if rng.Intn(3) > 0 {
							plain.Commit(pc)
							tree.Commit(bc)
							accepted++
						}
					case op < 16:
						if plain.Empty() {
							continue
						}
						if _, err := plain.Advance(); err != nil {
							t.Fatal(err)
						}
						if _, err := tree.Advance(); err != nil {
							t.Fatal(err)
						}
					default:
						if plain.Empty() {
							continue
						}
						path := w.oracle.Path(plain.Loc(), plain.NextStops()[0].Vertex)
						if len(path) < 2 {
							continue
						}
						odo := plain.Odo() + w.oracle.Dist(path[0], path[1])
						plain.SetLocation(path[1], odo)
						tree.SetLocation(path[1], odo)
					}
					if plain.Nodes() != tree.Nodes() || plain.Loc() != tree.Loc() || plain.Odo() != tree.Odo() {
						t.Fatalf("step %d: committed trees diverged: %d/%d nodes, at %d/%d, odo %v/%v",
							step, plain.Nodes(), tree.Nodes(), plain.Loc(), tree.Loc(), plain.Odo(), tree.Odo())
					}
					maxNodes = max(maxNodes, plain.Nodes())
				}
				if accepted < 10 {
					t.Fatalf("only %d of %d trials committed; the test exercised too little", accepted, trials)
				}
				if opts.MaxTreeNodes > 0 && overBudget == 0 {
					t.Fatalf("the %d-node budget never tripped in %d trials", opts.MaxTreeNodes, trials)
				}
				if boundO.dists >= plainO.dists {
					t.Fatalf("the bounded tree searched %d times, the plain one %d: the bound rejected nothing", boundO.dists, plainO.dists)
				}
				t.Logf("%d trials, %d committed, %d over budget, trees up to %d nodes; lookups reaching the oracle: %d plain, %d bounded",
					trials, accepted, overBudget, maxNodes, plainO.dists, boundO.dists)
			})
		}
	}
}
