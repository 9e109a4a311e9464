// Rushhour: a fleet-scale comparison on a synthetic city with a morning and
// evening demand peak — the setting of the paper's §VI evaluation, scaled to
// run in seconds. The day of demand is drawn from the streaming workload
// generator's surge mode (internal/workload, non-homogeneous Poisson over
// the double rush-hour curve) and enters through the concurrent ingress
// gateway (internal/ingest): four producer goroutines submit the stream,
// and the stamped-order drain feeds the dispatch engine — so both
// algorithms see the identical time-sorted demand a single producer would
// have produced.
// The gateway runs shed-oldest with enough queue capacity for the whole
// day, and the run asserts that nothing was actually shed at that
// configured capacity.
//
// It replays the same day through the kinetic tree and the
// branch-and-bound baseline and reports ACRT, match rate, and occupancy,
// showing the tree's response-time advantage on identical matching
// decisionspace.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	trips      = 2000
	producers  = 4
	queueDepth = trips // one queue (one shard) holding the whole surge
)

func main() {
	// Just the graph: demand comes from the workload generator, so there is
	// no reason to pay for the full exp.BuildWorld trace it would replace.
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: 0.01, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	// One materialized day, streamed through the gateway for each
	// algorithm, so the comparison stays apples to apples. (The surge
	// process can end at the horizon before reaching the Trips cap, so the
	// header counts the actual day, not the cap.)
	gen, err := workload.New(g, workload.Options{Pattern: workload.Surge, Trips: trips, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	day := gen.All()
	if err := gen.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d vertices, %d edges; %d surge-mode requests over the day\n\n",
		g.N(), g.M(), len(day))

	for _, algo := range []sim.Algorithm{sim.AlgoTreeSlack, sim.AlgoBranchBound} {
		spec := pipeline.Default()
		spec.Algo = algo.String()
		spec.Servers = 100
		spec.Seed = 42
		spec.Producers = producers
		spec.QueueDepth = queueDepth
		spec.ShedPolicy = ingest.ShedOldest.String()
		p, err := pipeline.Build(g, spec, pipeline.Hooks{})
		if err != nil {
			log.Fatal(err)
		}
		src := ingest.SliceSource(day)
		start := time.Now()
		m, _, err := p.Run(&src)
		wall := time.Since(start)
		if err != nil {
			log.Fatalf("%s: %v", algo, err)
		}
		p.Close()
		if m.Shed() != 0 {
			log.Fatalf("%s: gateway shed %d requests at configured capacity %d x %d",
				algo, m.Shed(), p.Gateway.Queues(), queueDepth)
		}
		max, mean, _ := m.OccupancyStats()
		fmt.Printf("%-12s  ACRT %-10v  matched %d/%d  detour x%.2f  peak occupancy max/mean %d/%.2f  (wall %v)\n",
			algo, m.ACRT(), m.Matched, m.Requests, m.MeanDetourFactor(), max, mean, wall.Round(time.Millisecond))
		fmt.Printf("              ingress: %d producers, admitted %d, shed 0, queue peak %d/%d, p99 wait %v\n",
			producers, m.Admitted, m.IngressQueuePeak, queueDepth, m.IngressWaitP99().Round(time.Microsecond))
	}
	fmt.Println("\nexpected shape (paper Fig. 6): the kinetic tree answers requests ~2x faster than")
	fmt.Println("branch-and-bound while matching a comparable share of requests.")
}
