// Ingress: the concurrent front door end to end. A streaming Poisson
// workload (internal/workload) is served live — never materialized — by
// eight producer goroutines racing into the ingress gateway
// (internal/ingest), whose stamped-order drain feeds the sharded dispatch
// engine. The same stream is then replayed under each backpressure policy
// with a deliberately tiny queue so the trade-offs are visible:
//
//   - block never drops a rider but makes producers wait (lossless, the
//     policy under which gateway runs are bit-identical to a single
//     producer);
//   - shed-oldest bounds producer latency by evicting the stalest queued
//     request when a queue is full;
//   - deadline refuses any request whose waiting-time window the gateway
//     lag has already blown, so the engine never burns trial insertions
//     on a rider the service guarantee has lost.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/ingest"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/workload"
)

func main() {
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 20, Cols: 20, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d vertices, %d edges; streaming poisson arrivals, 8 producers\n\n", g.N(), g.M())

	const wait = 600 // 10-minute waiting-time windows
	for _, policy := range []ingest.Policy{ingest.Block, ingest.ShedOldest, ingest.ShedDeadline} {
		cfg := sim.Config{
			Graph:       g,
			Oracle:      cache.NewShared(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N(), 1<<20, 1<<12, 0),
			Servers:     60,
			Capacity:    4,
			WaitSeconds: wait,
			Algorithm:   sim.AlgoTreeSlack,
			Seed:        42,
			Workers:     4,
		}
		eng, err := dispatch.New(cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		// Identical stream per policy: same seed, same options.
		gen, err := workload.New(g, workload.Options{
			Pattern: workload.Poisson, Trips: 800, HorizonSeconds: 7200, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		gw := ingest.New(ingest.Config{
			Queues:      eng.Shards(),
			Depth:       16, // tiny on purpose: let the policies differ
			Policy:      policy,
			WaitSeconds: wait,
		})
		start := time.Now()
		m, _, err := ingest.Run(gw, eng, gen, 8, nil)
		wall := time.Since(start)
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		if err := gen.Err(); err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		if err := eng.CheckInvariants(); err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		fmt.Printf("%-12s admitted %4d  shed %4d (overflow %4d, deadline %4d)  matched %4d  queue peak %2d  p99 ingress wait %v  (wall %v)\n",
			policy, m.Admitted, m.Shed(), m.ShedOverflow, m.ShedDeadline,
			m.Matched, m.IngressQueuePeak, m.IngressWaitP99().Round(time.Microsecond), wall.Round(time.Millisecond))
		eng.Close()
	}
	fmt.Println("\nblock is lossless (and bit-identical to a single producer); the shedding")
	fmt.Println("policies trade riders for bounded queues and bounded staleness.")
}
