package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// BenchmarkIngressThroughput: the concurrent front door end to end — N
// producer goroutines push the workload through the gateway's per-shard
// queues and the stamped-order drain feeds the dispatch engine. It
// reports matched requests/second and the p99 ingress wait for 1 vs. N
// producers, with gomaxprocs so single-core results aren't misread (on a
// one-CPU host producers time-slice, so extra producers measure fan-in
// overhead, not parallel speedup). Run under -race in CI so the full
// producer/drain fan-in runs under the detector on every push.
func BenchmarkIngressThroughput(b *testing.B) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.008, Trips: 200, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 400
	for _, producers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			var p99 time.Duration
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				spec := benchSpec(fleet, 4)
				spec.Producers = producers
				spec.QueueDepth = 64
				p := build(b, world.Graph, spec, pipeline.Hooks{})
				src := ingest.SliceSource(world.Requests)
				var err error
				b.StartTimer()
				m, _, err = p.Run(&src)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if m.Admitted != len(world.Requests) || m.Shed() != 0 {
					b.Fatalf("admitted %d, shed %d — blocking gateway must be lossless", m.Admitted, m.Shed())
				}
				if m.Matched == 0 {
					b.Fatal("nothing matched")
				}
				p99 = m.IngressWaitP99()
				p.Close()
				b.StartTimer()
			}
			reqPerSec := float64(len(world.Requests)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(reqPerSec, "req/s")
			b.ReportMetric(float64(p99.Microseconds()), "p99-ingress-wait-µs")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			if dir := obs.BenchDir(); dir != "" {
				r := obs.NewBenchResult(fmt.Sprintf("ingress_throughput_producers%d", producers))
				r.Metrics["req_per_sec"] = reqPerSec
				r.Metrics["p99_ingress_wait_ns"] = float64(p99.Nanoseconds())
				r.Metrics["p99_match_latency_ns"] = float64(m.MatchLatency.Quantile(0.99))
				r.Metrics["dist_cache_hit_rate"] = m.DistCacheHitRate()
				if err := obs.WriteBench(dir, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Deadline-shed mode: the gateway must never hand the engine a
	// request whose service-guarantee window is already blown. The
	// producers finish before the drain starts (queue capacity exceeds
	// the stream), so the gateway clock is final and the handoff-lag
	// assertion is exact.
	b.Run("deadline-shed", func(b *testing.B) {
		const wait = 600 // seconds: the default 10-minute window
		var admitted, shed int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			spec := benchSpec(fleet, 4)
			spec.WaitMinutes = wait / 60
			spec.Producers = 4
			spec.QueueDepth = len(world.Requests)
			spec.ShedPolicy = ingest.ShedDeadline.String()
			p := build(b, world.Graph, spec, pipeline.Hooks{})
			e, gw := p.Engine, p.Gateway
			src := ingest.SliceSource(world.Requests)
			b.StartTimer()
			if err := ingest.Drive(gw, &src, spec.Producers); err != nil {
				b.Fatalf("drive: %v", err)
			}
			gw.Drain(func(r sim.Request) {
				if lag := gw.Now() - r.Time; lag > wait {
					b.Fatalf("request %d handed off %.0f s late (window %d s)", r.ID, lag, wait)
				}
				e.Submit(r)
			})
			b.StopTimer()
			m := gw.Metrics()
			admitted, shed = m.Admitted, m.ShedDeadline
			if admitted+shed != len(world.Requests) {
				b.Fatalf("admitted %d + shed %d != %d submissions", admitted, shed, len(world.Requests))
			}
			e.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(admitted), "admitted")
		b.ReportMetric(float64(shed), "deadline-shed")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
}
