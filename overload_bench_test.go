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

// overloadStep is one point on a degradation curve.
type overloadStep struct {
	mult       int
	offered    int     // requests actually offered
	goodputRPS float64 // within-SLO matched requests per wall second
	rawRPS     float64 // matched per wall second, SLO ignored
	shedRate   float64 // shed fraction of offered
	p99MatchNs float64
}

// BenchmarkOverloadDegradation sweeps offered load from 1x to 8x of the
// measured matcher capacity and records the goodput curve for the fixed
// queue-depth policy (ShedOldest) versus SLO-driven adaptive admission.
// The fixed arm's goodput is discounted to its within-wall-SLO fraction
// (CountAtOrBelow over the ingress-wait histogram); the adaptive arm's
// releases are within-SLO by construction, so its goodput is its matched
// rate. Degradation acceptance: adaptive goodput at every multiplier
// stays >= 90% of its own 1x value — overload degrades the curve
// smoothly instead of cliff-diving.
//
// Simulated time advances 2 requests per simulated second at every
// multiplier, so fleet occupancy (and per-request matching cost) is the
// same at 1x and 8x: the only variable across the sweep is wall-clock
// arrival pressure on the gateway.
func BenchmarkOverloadDegradation(b *testing.B) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.008, Trips: 400, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	const (
		fleet    = 400
		slo      = 250 * time.Millisecond
		simDt    = 0.5 // simulated seconds between consecutive requests
		stepWall = 500 * time.Millisecond
		maxReqs  = 500_000
	)

	// The benchmark drives the gateway itself (one open-loop paced
	// producer); Build supplies the engine and, given a policy, the gateway.
	spec := benchSpec(fleet, 4)
	spec.QueueDepth = 256
	spec.SLO = slo
	makeReqs := func(n int) []sim.Request {
		reqs := make([]sim.Request, n)
		for i := range reqs {
			w := world.Requests[i%len(world.Requests)]
			reqs[i] = sim.Request{
				ID:      int64(i),
				Time:    float64(i) * simDt,
				Pickup:  w.Pickup,
				Dropoff: w.Dropoff,
			}
		}
		return reqs
	}

	// Capacity calibration: unthrottled direct submission measures the
	// matcher's service rate mu with the same request mix and simulated
	// time density the sweep uses.
	calibrate := func() float64 {
		e := build(b, world.Graph, spec, pipeline.Hooks{}).Engine
		defer e.Close()
		reqs := makeReqs(maxReqs)
		start := time.Now()
		n := 0
		for time.Since(start) < 400*time.Millisecond && n < len(reqs) {
			e.Submit(reqs[n])
			n++
		}
		return float64(n) / time.Since(start).Seconds()
	}

	// runStep offers `mult x mu` for stepWall through one gateway policy
	// and returns the degradation-curve point.
	runStep := func(policy ingest.Policy, mu float64, mult int) overloadStep {
		offered := mu * float64(mult)
		n := int(offered * stepWall.Seconds())
		if n > maxReqs {
			n = maxReqs
		}
		if n < 1 {
			n = 1
		}
		reqs := makeReqs(n)
		gated := spec
		gated.Producers = 1
		gated.ShedPolicy = policy.String()
		p := build(b, world.Graph, gated, pipeline.Hooks{})
		defer p.Close()
		e, gw := p.Engine, p.Gateway
		start := time.Now()
		go func() {
			// Open-loop paced producer: bursts on a 2ms tick hold the
			// offered rate regardless of what the gateway does with the
			// requests (both policies admit without blocking).
			p := gw.Producers(1)[0]
			i := 0
			for i < len(reqs) {
				target := int(offered * time.Since(start).Seconds())
				for ; i <= target && i < len(reqs); i++ {
					p.Submit(reqs[i])
				}
				time.Sleep(2 * time.Millisecond)
			}
			p.Close()
		}()
		matched := 0
		gw.Drain(func(r sim.Request) {
			if ok, _ := e.Submit(r); ok {
				matched++
			}
		})
		wall := time.Since(start).Seconds()
		m := e.Metrics()
		gw.MetricsInto(m)

		raw := float64(matched) / wall
		goodput := raw
		if policy != ingest.Adaptive {
			// Discount served-but-late: the fraction of releases whose
			// gateway residence met the wall SLO. Adaptive sheds those at
			// handoff, so its matched count is already within-SLO.
			if total := m.IngressWait.Count(); total > 0 {
				goodput = raw * float64(m.IngressWait.CountAtOrBelow(slo.Nanoseconds())) / float64(total)
			}
		}
		return overloadStep{
			mult:       mult,
			offered:    n,
			goodputRPS: goodput,
			rawRPS:     raw,
			shedRate:   float64(m.Shed()) / float64(n),
			p99MatchNs: float64(m.MatchLatency.Quantile(0.99)),
		}
	}

	mults := []int{1, 2, 4, 8}
	var fixed, adaptive []overloadStep
	var mu float64
	for i := 0; i < b.N; i++ {
		mu = calibrate()
		fixed = fixed[:0]
		adaptive = adaptive[:0]
		for _, k := range mults {
			fixed = append(fixed, runStep(ingest.ShedOldest, mu, k))
			adaptive = append(adaptive, runStep(ingest.Adaptive, mu, k))
		}
		base := adaptive[0].goodputRPS
		for _, s := range adaptive[1:] {
			if s.goodputRPS < 0.9*base {
				b.Fatalf("adaptive goodput cliff: %.0f req/s at %dx vs %.0f req/s at 1x (< 90%%)",
					s.goodputRPS, s.mult, base)
			}
		}
	}

	b.ReportMetric(mu, "capacity-req/s")
	b.ReportMetric(adaptive[0].goodputRPS, "adaptive-goodput-1x")
	b.ReportMetric(adaptive[len(adaptive)-1].goodputRPS, "adaptive-goodput-8x")
	b.ReportMetric(fixed[len(fixed)-1].goodputRPS, "fixed-goodput-8x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	for _, s := range adaptive {
		b.Logf("adaptive %dx: offered=%d goodput=%.0f raw=%.0f shed=%.2f p99match=%.2fms",
			s.mult, s.offered, s.goodputRPS, s.rawRPS, s.shedRate, s.p99MatchNs/1e6)
	}
	for _, s := range fixed {
		b.Logf("fixed    %dx: offered=%d goodput=%.0f raw=%.0f shed=%.2f p99match=%.2fms",
			s.mult, s.offered, s.goodputRPS, s.rawRPS, s.shedRate, s.p99MatchNs/1e6)
	}

	if dir := obs.BenchDir(); dir != "" {
		r := obs.NewBenchResult("Overload")
		r.Metrics["capacity_req_per_sec"] = mu
		record := func(arm string, steps []overloadStep) {
			for _, s := range steps {
				prefix := fmt.Sprintf("%s_x%d_", arm, s.mult)
				r.Metrics[prefix+"goodput_req_per_sec"] = s.goodputRPS
				r.Metrics[prefix+"raw_matched_req_per_sec"] = s.rawRPS
				r.Metrics[prefix+"shed_rate"] = s.shedRate
				r.Metrics[prefix+"p99_match_latency_ns"] = s.p99MatchNs
			}
		}
		record("adaptive", adaptive)
		record("fixed", fixed)
		if err := obs.WriteBench(dir, r); err != nil {
			b.Fatal(err)
		}
	}
}
