package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/roadnet"
)

// retentionTree builds a tree holding a few committed trips that has since
// moved one hop toward its next stop. The same seed builds the same tree.
func retentionTree(t *testing.T, w *testWorld, opts TreeOptions, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := NewTree(w.oracle, 24, 0, opts)
	for accepted := 0; accepted < 3; {
		cand, ok := tryTrial(t, w, tree, rng, int64(100+accepted))
		if ok {
			tree.Commit(cand)
			accepted++
		}
	}
	path := w.oracle.Path(tree.Loc(), tree.NextStops()[0].Vertex)
	if len(path) < 2 {
		t.Fatalf("seed %d: next stop is at the vehicle; pick another seed", seed)
	}
	tree.SetLocation(path[1], tree.Odo()+w.oracle.Dist(path[0], path[1]))
	return tree
}

// randomTrip draws a trip between two distinct random vertices with a
// budget wide enough to be feasible most of the time.
func randomTrip(t *testing.T, w *testWorld, tree *Tree, rng *rand.Rand, id int64) TripState {
	t.Helper()
	n := int32(w.g.N())
	for {
		s, e := roadnet.VertexID(rng.Int31n(n)), roadnet.VertexID(rng.Int31n(n))
		if s == e {
			continue
		}
		ts, err := NewTripState(id, s, e, 4000, 0.5, tree.Odo(), w.oracle)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
}

func tryTrial(t *testing.T, w *testWorld, tree *Tree, rng *rand.Rand, id int64) (*Candidate, bool) {
	t.Helper()
	cand, ok, err := tree.TrialInsert(randomTrip(t, w, tree, rng, id))
	if err != nil {
		t.Fatal(err)
	}
	return cand, ok
}

// TestCandidateRetention pins the contract the batch planner relies on: a
// candidate stays committable across any number of later trial insertions
// on its tree, and committing it gives exactly the tree an immediate commit
// would. Once the tree mutates — Commit, SetLocation or Advance — every
// older candidate is stale and Commit refuses it.
func TestCandidateRetention(t *testing.T) {
	variants := []struct {
		name string
		opts TreeOptions
	}{
		{"basic", TreeOptions{Capacity: 4}},
		{"slack", TreeOptions{Slack: true, Capacity: 4}},
		{"hotspot", TreeOptions{Slack: true, HotspotTheta: 800, Capacity: 4}},
		{"unlimited", TreeOptions{Slack: true}},
		{"lazy", TreeOptions{Slack: true, Capacity: 4, LazyInvalidation: true}},
	}
	w := newTestWorld(t, 41)
	const seed = 42
	for _, v := range variants {
		t.Run(v.name+"/held", func(t *testing.T) {
			held := retentionTree(t, w, v.opts, seed)
			now := retentionTree(t, w, v.opts, seed)

			rng := rand.New(rand.NewSource(43))
			var trip TripState
			var cand *Candidate
			for ok := false; !ok; {
				trip = randomTrip(t, w, held, rng, 200)
				var err error
				if cand, ok, err = held.TrialInsert(trip); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 25; i++ {
				tryTrial(t, w, held, rng, int64(300+i)) // dropped
			}
			runtime.GC()
			held.Commit(cand)
			if err := held.Validate(); err != nil {
				t.Fatalf("held candidate committed into an invalid tree: %v", err)
			}

			again, ok, err := now.TrialInsert(trip)
			if err != nil || !ok {
				t.Fatalf("identical tree rejected the trip: ok=%v err=%v", ok, err)
			}
			now.Commit(again)
			hc, ho, _ := held.Best()
			nc, no, _ := now.Best()
			if hc != nc || !reflect.DeepEqual(ho, no) {
				t.Fatalf("held commit Best = %.3f %v, immediate commit Best = %.3f %v", hc, ho, nc, no)
			}
		})

		for _, m := range []struct {
			name   string
			mutate func(t *testing.T, tree *Tree)
		}{
			{"commit", func(t *testing.T, tree *Tree) {
				rng := rand.New(rand.NewSource(44))
				for {
					if c, ok := tryTrial(t, w, tree, rng, 400); ok {
						tree.Commit(c)
						return
					}
				}
			}},
			{"setlocation", func(t *testing.T, tree *Tree) {
				path := w.oracle.Path(tree.Loc(), tree.NextStops()[0].Vertex)
				if len(path) < 2 {
					t.Fatal("next stop is at the vehicle; pick another seed")
				}
				tree.SetLocation(path[1], tree.Odo()+w.oracle.Dist(path[0], path[1]))
			}},
			{"advance", func(t *testing.T, tree *Tree) {
				if _, err := tree.Advance(); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			t.Run(v.name+"/stale-after-"+m.name, func(t *testing.T) {
				tree := retentionTree(t, w, v.opts, seed)
				rng := rand.New(rand.NewSource(45))
				var old *Candidate
				for ok := false; !ok; {
					old, ok = tryTrial(t, w, tree, rng, 500)
				}
				m.mutate(t, tree)
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "stale candidate") {
						t.Fatalf("Commit after %s: recovered %v, want a stale-candidate panic", m.name, r)
					}
				}()
				tree.Commit(old)
			})
		}
	}
}
