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

	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
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

	for _, policy := range []ingest.Policy{ingest.Block, ingest.ShedOldest, ingest.ShedDeadline} {
		// The default 10-minute waiting-time window is also the gateway's
		// deadline-shed window.
		spec := pipeline.Default()
		spec.Servers = 60
		spec.Seed = 42
		spec.Workers = 4
		spec.Producers = 8
		spec.QueueDepth = 16 // tiny on purpose: let the policies differ
		spec.ShedPolicy = policy.String()
		p, err := pipeline.Build(g, spec, pipeline.Hooks{})
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
		start := time.Now()
		m, _, err := p.Run(gen)
		wall := time.Since(start)
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		if err := gen.Err(); err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		fmt.Printf("%-12s admitted %4d  shed %4d (overflow %4d, deadline %4d)  matched %4d  queue peak %2d  p99 ingress wait %v  (wall %v)\n",
			policy, m.Admitted, m.Shed(), m.ShedOverflow, m.ShedDeadline,
			m.Matched, m.IngressQueuePeak, m.IngressWaitP99().Round(time.Microsecond), wall.Round(time.Millisecond))
		p.Close()
	}
	fmt.Println("\nblock is lossless (and bit-identical to a single producer); the shedding")
	fmt.Println("policies trade riders for bounded queues and bounded staleness.")
}
