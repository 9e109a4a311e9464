// Quickstart: build a small road network, create one kinetic-tree server,
// and walk it through three ride requests — trial insertion, commit, and
// advancing along the chosen schedule. This is the minimal end-to-end use
// of the library's core API.
package main

import (
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

func main() {
	// A 10x10 jittered grid, ~250 m blocks.
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 10, Cols: 10, Spacing: 250, Jitter: 0.2, WeightVar: 0.1, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Bidirectional Dijkstra behind the shared distance table.
	oracle := cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())

	// One server at vertex 0 with capacity 4, slack-time filtering on.
	tree := core.NewTree(oracle, 0, 0, core.TreeOptions{Slack: true, Capacity: 4})

	// Service guarantee: pickup within 8,400 m of driving (10 minutes at
	// 14 m/s) and at most 20% detour on every ride.
	const wait = 10 * 60 * roadnet.Speed
	const eps = 0.2

	requests := []struct{ pickup, dropoff roadnet.VertexID }{
		{12, 87},
		{23, 78},
		{45, 9},
	}
	for i, r := range requests {
		trip, err := core.NewTripState(int64(i), r.pickup, r.dropoff, wait, eps, tree.Odo(), oracle)
		if err != nil {
			log.Fatal(err)
		}
		cand, ok, err := tree.TrialInsert(trip)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			fmt.Printf("request %d (%d -> %d): rejected, no valid augmented schedule\n", i, r.pickup, r.dropoff)
			continue
		}
		tree.Commit(cand)
		fmt.Printf("request %d (%d -> %d): accepted, schedule cost %.0f m, tree holds %d nodes\n",
			i, r.pickup, r.dropoff, cand.Cost, tree.Nodes())
	}

	cost, order, _ := tree.Best()
	fmt.Printf("\nchosen schedule (%.0f m):", cost)
	for _, s := range order {
		fmt.Printf(" %v", s)
	}
	fmt.Println()

	// Drive the schedule to completion.
	for !tree.Empty() {
		served, err := tree.Advance()
		if err != nil {
			log.Fatal(err)
		}
		for _, sv := range served {
			fmt.Printf("served %v at odometer %.0f m\n", sv.Stop, sv.Odo)
		}
	}
	fmt.Printf("all passengers delivered after %.0f m of driving\n", tree.Odo())
}
