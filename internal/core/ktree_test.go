package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/roadnet"
)

// TestTreeLifecycle drives a kinetic tree through a long random sequence of
// trial insertions, commits, advances, and location updates, validating the
// complete tree after every mutation. This is the stateful API the simulator
// uses, exercised the way the paper describes: requests interleaved with
// server movement.
func TestTreeLifecycle(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts TreeOptions
	}{
		{"basic", TreeOptions{Capacity: 4}},
		{"slack", TreeOptions{Slack: true, Capacity: 4}},
		{"hotspot", TreeOptions{Slack: true, HotspotTheta: 800, Capacity: 4}},
		{"unlimited", TreeOptions{Slack: true}},
		{"lazy", TreeOptions{Slack: true, Capacity: 4, LazyInvalidation: true}},
		{"lazy-basic", TreeOptions{Capacity: 4, LazyInvalidation: true}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			w := newTestWorld(t, 11)
			rng := rand.New(rand.NewSource(12))
			n := int32(w.g.N())
			tree := NewTree(w.oracle, roadnet.VertexID(rng.Int31n(n)), 0, variant.opts)

			const wait = 4000.0
			const eps = 0.4
			accepted, rejected, advances := 0, 0, 0
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // new request
					var s, e roadnet.VertexID
					for {
						s = roadnet.VertexID(rng.Int31n(n))
						e = roadnet.VertexID(rng.Int31n(n))
						if s != e {
							break
						}
					}
					ts, err := NewTripState(int64(step), s, e, wait, eps, tree.Odo(), w.oracle)
					if err != nil {
						t.Fatalf("step %d: trip state: %v", step, err)
					}
					cand, ok, err := tree.TrialInsert(ts)
					if err != nil {
						t.Fatalf("step %d: trial: %v", step, err)
					}
					if !ok {
						rejected++
						// Trial must leave the tree untouched.
						if err := tree.Validate(); err != nil {
							t.Fatalf("step %d: tree invalid after failed trial: %v", step, err)
						}
						continue
					}
					if cand.Cost < 0 {
						t.Fatalf("step %d: negative candidate cost %f", step, cand.Cost)
					}
					tree.Commit(cand)
					accepted++
				case op < 8: // advance to the next stop
					if tree.Empty() {
						continue
					}
					prevOdo := tree.Odo()
					served, err := tree.Advance()
					if err != nil {
						t.Fatalf("step %d: advance: %v", step, err)
					}
					if len(served) == 0 {
						t.Fatalf("step %d: advance served nothing", step)
					}
					if tree.Odo() < prevOdo {
						t.Fatalf("step %d: odometer went backwards", step)
					}
					advances++
				default: // move one hop toward the next scheduled stop
					if tree.Empty() {
						continue
					}
					target := tree.NextStops()[0].Vertex
					path := w.oracle.Path(tree.Loc(), target)
					if len(path) < 2 {
						continue
					}
					hop := w.oracle.Dist(path[0], path[1])
					tree.SetLocation(path[1], tree.Odo()+hop)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("step %d (%s): tree invalid: %v", step, variant.name, err)
				}
				if c := tree.OnBoard(); variant.opts.Capacity > 0 && c > variant.opts.Capacity {
					t.Fatalf("step %d: %d passengers onboard exceeds capacity", step, c)
				}
			}
			if accepted < 20 {
				t.Fatalf("only %d requests accepted; test exercised too little", accepted)
			}
			if advances < 20 {
				t.Fatalf("only %d advances; test exercised too little", advances)
			}
			t.Logf("accepted=%d rejected=%d advances=%d", accepted, rejected, advances)
		})
	}
}

// TestTreeBestMatchesValidate cross-checks that the cost reported by Best
// equals the walked cost of its order, via an Instance reconstruction.
func TestTreeBestMatchesValidate(t *testing.T) {
	w := newTestWorld(t, 21)
	rng := rand.New(rand.NewSource(22))
	n := int32(w.g.N())
	tree := NewTree(w.oracle, roadnet.VertexID(5), 0, TreeOptions{Slack: true, Capacity: 6})
	var trips []TripState
	for i := 0; i < 4; i++ {
		s := roadnet.VertexID(rng.Int31n(n))
		e := roadnet.VertexID(rng.Int31n(n))
		if s == e {
			continue
		}
		ts, err := NewTripState(int64(i), s, e, 6000, 0.5, tree.Odo(), w.oracle)
		if err != nil {
			t.Fatal(err)
		}
		cand, ok, err := tree.TrialInsert(ts)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		tree.Commit(cand)
		trips = append(trips, ts)
	}
	if tree.Empty() {
		t.Skip("no trips accepted under this seed")
	}
	cost, order, ok := tree.Best()
	if !ok {
		t.Fatal("Best on non-empty tree returned !ok")
	}
	inst := &Instance{Origin: tree.Loc(), Odo: tree.Odo(), Trips: trips, Capacity: 6}
	walked, err := ValidateOrder(inst, w.oracle, order)
	if err != nil {
		t.Fatalf("best order invalid: %v", err)
	}
	if math.Abs(walked-cost) > 1e-6 {
		t.Fatalf("Best cost %.4f != walked %.4f", cost, walked)
	}
}

// TestTreeRejectsImpossibleRequest checks that a request whose pickup is
// beyond the waiting budget is rejected.
func TestTreeRejectsImpossibleRequest(t *testing.T) {
	w := newTestWorld(t, 31)
	tree := NewTree(w.oracle, 0, 0, TreeOptions{})
	// Find the farthest vertex from 0 and give a tiny waiting budget.
	far := roadnet.VertexID(1)
	for v := int32(2); v < int32(w.g.N()); v++ {
		if w.oracle.Dist(0, v) > w.oracle.Dist(0, far) {
			far = v
		}
	}
	ts, err := NewTripState(1, far, 0, 10 /* meters of wait */, 0.2, 0, w.oracle)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tree.TrialInsert(ts); ok {
		t.Fatal("accepted a request whose pickup is out of waiting range")
	}
}

// TestEagerPruneMatchesLazy: an eager tree, which re-validates its branches
// on every movement through the slack shortcuts, stays a valid tree and
// picks the schedule a lazy tree picks after re-walking every branch
// exactly. Movement shifts a root branch by its new leg plus the metres
// already driven less its old leg; leaving out the driven metres keeps
// branches whose arrivals slipped past a deadline. Four variants, 60 worlds
// each, budgets tight enough that movement prunes.
func TestEagerPruneMatchesLazy(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts TreeOptions
	}{
		{"basic", TreeOptions{Capacity: 4}},
		{"slack", TreeOptions{Slack: true, Capacity: 4}},
		{"hotspot", TreeOptions{Slack: true, HotspotTheta: 800, Capacity: 4}},
		{"unlimited", TreeOptions{Slack: true}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				eagerMatchesLazy(t, seed, variant.opts)
			}
		})
	}
}

// eagerMatchesLazy runs one world's 600 random operations on an eager and a
// lazy tree in lockstep.
func eagerMatchesLazy(t *testing.T, seed int64, opts TreeOptions) {
	t.Helper()
	w := newTestWorld(t, seed)
	rng := rand.New(rand.NewSource(seed))
	n := int32(w.g.N())
	wait, eps := 1500+2500*rng.Float64(), 0.1+0.4*rng.Float64()
	start := roadnet.VertexID(rng.Int31n(n))
	lazyOpts := opts
	lazyOpts.LazyInvalidation = true
	eager, lazy := NewTree(w.oracle, start, 0, opts), NewTree(w.oracle, start, 0, lazyOpts)
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // new request
			s, e := roadnet.VertexID(rng.Int31n(n)), roadnet.VertexID(rng.Int31n(n))
			if s == e {
				continue
			}
			ts, err := NewTripState(int64(step), s, e, wait, eps, eager.Odo(), w.oracle)
			if err != nil {
				t.Fatal(err)
			}
			ce, okE, errE := eager.TrialInsert(ts)
			cl, okL, errL := lazy.TrialInsert(ts)
			if errE != nil || errL != nil || okE != okL || (okE && ce.Cost != cl.Cost) {
				t.Fatalf("seed %d step %d: eager trial (%v, %v), lazy (%v, %v)", seed, step, okE, errE, okL, errL)
			}
			if okE {
				eager.Commit(ce)
				lazy.Commit(cl)
			}
		case op < 6: // advance to the next stop
			if eager.Empty() {
				continue
			}
			if _, err := eager.Advance(); err != nil {
				t.Fatal(err)
			}
			if _, err := lazy.Advance(); err != nil {
				t.Fatal(err)
			}
		default: // move one hop toward the next stop
			if eager.Empty() {
				continue
			}
			path := w.oracle.Path(eager.Loc(), eager.NextStops()[0].Vertex)
			if len(path) < 2 {
				continue
			}
			odo := eager.Odo() + w.oracle.Dist(path[0], path[1])
			eager.SetLocation(path[1], odo)
			lazy.SetLocation(path[1], odo)
			if err := eager.Validate(); err != nil {
				t.Fatalf("seed %d step %d: eager tree invalid after moving: %v", seed, step, err)
			}
		}
		costE, orderE, okE := eager.Best()
		costL, orderL, okL := lazy.Best()
		if okE != okL || costE != costL || !reflect.DeepEqual(orderE, orderL) {
			t.Fatalf("seed %d step %d: eager Best (%v, %v, %v), lazy (%v, %v, %v)", seed, step, costE, orderE, okE, costL, orderL, okL)
		}
	}
}
