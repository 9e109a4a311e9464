package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

// Ablation benchmarks for the kinetic tree's three design choices:
// slack-time filtering, hotspot clustering, and eager vs. lazy invalidation.

// buildLoadedTree returns a tree carrying k accepted trips.
func buildLoadedTree(b *testing.B, w *testWorld, rng *rand.Rand, k int, opts TreeOptions) (*Tree, bool) {
	b.Helper()
	n := int32(w.g.N())
	tree := NewTree(w.oracle, roadnet.VertexID(rng.Int31n(n)), 0, opts)
	for tries := 0; tree.ActiveTrips() < k && tries < 300; tries++ {
		s := roadnet.VertexID(rng.Int31n(n))
		e := roadnet.VertexID(rng.Int31n(n))
		if s == e {
			continue
		}
		ts, err := NewTripState(int64(tries), s, e, 8400, 0.3, tree.Odo(), w.oracle)
		if err != nil {
			continue
		}
		cand, ok, err := tree.TrialInsert(ts)
		if err != nil || !ok {
			continue
		}
		tree.Commit(cand)
	}
	return tree, tree.ActiveTrips() == k
}

// BenchmarkAblationInsert compares trial-insertion cost across variants on
// identically loaded trees.
func BenchmarkAblationInsert(b *testing.B) {
	w := newTestWorld(b, 71)
	for _, variant := range []struct {
		name string
		opts TreeOptions
	}{
		{"basic", TreeOptions{Capacity: 6}},
		{"slack", TreeOptions{Slack: true, Capacity: 6}},
		{"hotspot", TreeOptions{Slack: true, HotspotTheta: 400, Capacity: 6}},
	} {
		for _, k := range []int{2, 4, 6} {
			b.Run(fmt.Sprintf("%s/trips=%d", variant.name, k), func(b *testing.B) {
				rng := rand.New(rand.NewSource(72))
				tree, ok := buildLoadedTree(b, w, rng, k, variant.opts)
				if !ok {
					b.Skipf("could not load %d trips", k)
				}
				n := int32(w.g.N())
				trials := make([]TripState, 16)
				for i := range trials {
					for {
						s := roadnet.VertexID(rng.Int31n(n))
						e := roadnet.VertexID(rng.Int31n(n))
						if s == e {
							continue
						}
						ts, err := NewTripState(int64(1000+i), s, e, 8400, 0.3, tree.Odo(), w.oracle)
						if err != nil {
							continue
						}
						trials[i] = ts
						break
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, err := tree.TrialInsert(trials[i%len(trials)])
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationMovement compares eager and lazy invalidation on the cost
// of per-hop location updates while carrying passengers.
func BenchmarkAblationMovement(b *testing.B) {
	w := newTestWorld(b, 73)
	for _, variant := range []struct {
		name string
		opts TreeOptions
	}{
		{"eager", TreeOptions{Slack: true, Capacity: 6}},
		{"lazy", TreeOptions{Slack: true, Capacity: 6, LazyInvalidation: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(74))
			tree, ok := buildLoadedTree(b, w, rng, 4, variant.opts)
			if !ok {
				b.Skip("could not load tree")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Drive one hop toward the next scheduled stop, serving
				// stops and rebuilding the tree (untimed) as trips finish.
				stops := tree.NextStops()
				if len(stops) == 0 {
					b.StopTimer()
					var ok bool
					tree, ok = buildLoadedTree(b, w, rng, 4, variant.opts)
					if !ok {
						b.Skip("could not rebuild tree")
					}
					b.StartTimer()
					continue
				}
				path := w.oracle.Path(tree.Loc(), stops[0].Vertex)
				if len(path) < 2 {
					b.StopTimer()
					if _, err := tree.Advance(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					continue
				}
				hop := w.oracle.Dist(path[0], path[1])
				tree.SetLocation(path[1], tree.Odo()+hop)
			}
		})
	}
}

// BenchmarkAblationCommit measures the cost of adopting a candidate
// (including the slack-aggregate refresh pass).
func BenchmarkAblationCommit(b *testing.B) {
	w := newTestWorld(b, 75)
	rng := rand.New(rand.NewSource(76))
	tree, ok := buildLoadedTree(b, w, rng, 4, TreeOptions{Slack: true, Capacity: 6})
	if !ok {
		b.Skip("could not load tree")
	}
	n := int32(w.g.N())
	var trial TripState
	for {
		s := roadnet.VertexID(rng.Int31n(n))
		e := roadnet.VertexID(rng.Int31n(n))
		if s == e {
			continue
		}
		ts, err := NewTripState(999, s, e, 8400, 0.3, tree.Odo(), w.oracle)
		if err != nil {
			continue
		}
		if _, ok, _ := tree.TrialInsert(ts); ok {
			trial = ts
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh trial each iteration (Commit consumes the candidate).
		clone, ok := buildLoadedTree(b, w, rand.New(rand.NewSource(76)), 4, TreeOptions{Slack: true, Capacity: 6})
		if !ok {
			b.Skip("could not rebuild tree")
		}
		cand, ok, err := clone.TrialInsert(trial)
		if err != nil || !ok {
			b.Skip("trial became infeasible")
		}
		b.StartTimer()
		clone.Commit(cand)
	}
}
