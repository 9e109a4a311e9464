// Rushhour: a fleet-scale comparison on a synthetic city with a morning and
// evening demand peak — the setting of the paper's §VI evaluation, scaled to
// run in seconds. The day of demand is drawn from the workload
// generator's surge mode (internal/workload, a fixed number of arrivals
// drawn from the double rush-hour curve) and enters through the
// concurrent ingress gateway (internal/ingest): four producer goroutines
// submit the stream, and the stamped-order drain feeds the dispatch engine
// the identical time-sorted demand a single producer would have produced.
// The gateway runs shed-oldest with enough queue capacity for the whole
// day, and the run asserts that nothing was actually shed at that
// configured capacity.
//
// The kinetic tree serves the day with every trial's rescheduling instance
// captured (pipeline.Hooks.Capture). Those instances are then replayed
// through the slack tree and the three baselines (exp.Replay), so every
// scheduler is timed on identical questions; the example prints the
// tree-to-branch-and-bound ratio that replay measured.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
	"repro/internal/sp"
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
	// One materialized day of exactly trips requests, streamed through the
	// gateway.
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

	spec := pipeline.Default()
	spec.Servers = 100
	spec.Seed = 42
	spec.Producers = producers
	spec.QueueDepth = queueDepth
	spec.ShedPolicy = ingest.ShedOldest.String()
	// At the default single worker every trial runs on the gateway's one
	// drain goroutine, so the capture needs no lock.
	var insts []*core.Instance
	p, err := pipeline.Build(g, spec, pipeline.Hooks{Capture: func(in *core.Instance) { insts = append(insts, in) }})
	if err != nil {
		log.Fatal(err)
	}
	src := ingest.SliceSource(day)
	start := time.Now()
	m, _, err := p.Run(&src)
	wall := time.Since(start)
	if err != nil {
		log.Fatalf("%s: %v", spec.Algo, err)
	}
	p.Close()
	if m.Shed() != 0 {
		log.Fatalf("gateway shed %d requests at configured capacity %d x %d", m.Shed(), p.Gateway.Queues(), queueDepth)
	}
	max, mean, _ := m.OccupancyStats()
	fmt.Printf("%-12s  ACRT %-10v  matched %d/%d  detour x%.2f  peak occupancy max/mean %d/%.2f  (wall %v)\n",
		spec.Algo, m.ACRT(), m.Matched, m.Requests, m.MeanDetourFactor(), max, mean, wall.Round(time.Millisecond))
	fmt.Printf("              ingress: %d producers, admitted %d, shed 0, queue peak %d/%d, p99 wait %v\n",
		producers, m.Admitted, m.IngressQueuePeak, queueDepth, m.IngressWaitP99().Round(time.Microsecond))

	replayed, resolve := exp.Replay(sp.NewHubLabels(g), insts, m.Requests)
	tree, bb := replayed["ktree-slack"], replayed["branchbound"]
	if tree.Matched != bb.Matched {
		log.Fatalf("replay: tree serves %d requests, branch-and-bound %d, on identical instances", tree.Matched, bb.Matched)
	}
	fmt.Printf("\nreplay of %d captured trial instances (distances resolved once: %v per request):\n",
		len(insts), (resolve / time.Duration(m.Requests)).Round(100*time.Nanosecond))
	for _, name := range exp.FourAlgos {
		r := replayed[name]
		fmt.Printf("%-12s  scheduling time per request %-10v  servable %d/%d\n", name, r.ACRT(), r.Matched, r.Requests)
	}
	fmt.Printf("measured: the kinetic tree schedules in %.2fx branch-and-bound's time (paper Fig. 6: about 0.5x)\n",
		float64(tree.ACRT())/float64(bb.ACRT()))
}
