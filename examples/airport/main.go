// Airport: the scenario motivating hotspot clustering (paper §V). Eight
// passengers request pickups from the same airport curb within a short
// window; without clustering, every permutation of the clustered pickups is
// a distinct valid schedule and the kinetic tree explodes combinatorially
// ("8! = 40,320 possibilities already"). The hotspot variant merges the
// co-located points into one node and stays small, at a bounded extra cost
// of at most 2(m+1)·θ.
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
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 14, Cols: 14, Spacing: 300, Jitter: 0.15, WeightVar: 0.1, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	oracle := cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())

	// The "airport": vertex 0's corner of the grid; terminals are the
	// vertices adjacent to it. Dropoffs are spread across the city.
	airport := roadnet.VertexID(0)
	terminals, _ := g.Neighbors(airport)
	dropoffs := []roadnet.VertexID{97, 133, 188, 55, 142, 79, 191, 120}

	const wait = 25 * 60 * roadnet.Speed // generous: everyone shares
	const eps = 1.0                      // up to 2x the direct ride

	run := func(name string, opts core.TreeOptions) {
		tree := core.NewTree(oracle, airport, 0, opts)
		accepted := 0
		for i, d := range dropoffs {
			pickup := terminals[i%len(terminals)] // curbs cluster around the airport
			trip, err := core.NewTripState(int64(i), pickup, d, wait, eps, tree.Odo(), oracle)
			if err != nil {
				log.Fatal(err)
			}
			cand, ok, err := tree.TrialInsert(trip)
			if err != nil {
				fmt.Printf("%-14s request %d: tree blew past the node budget (%v)\n", name, i, err)
				return
			}
			if !ok {
				continue
			}
			tree.Commit(cand)
			accepted++
		}
		cost, _, _ := tree.Best()
		fmt.Printf("%-14s accepted %d/%d airport pickups, best schedule %.0f m, tree size %d nodes\n",
			name, accepted, len(dropoffs), cost, tree.Nodes())
	}

	// A modest budget makes the combinatorial difference visible: the
	// exact variants exhaust it, hotspot clustering sails through.
	const budget = 4000
	run("basic", core.TreeOptions{MaxTreeNodes: budget})
	run("slack", core.TreeOptions{Slack: true, MaxTreeNodes: budget})
	run("hotspot θ=600m", core.TreeOptions{Slack: true, HotspotTheta: 600, MaxTreeNodes: budget})
}
