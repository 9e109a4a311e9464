// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (§VI). DESIGN.md §4 maps each figure to
// its benchmark. Two kinds of benchmarks appear here:
//
//   - ART benchmarks (Figs. 6a, 7a, 8a/b, 9a/b) measure one scheduling
//     trial on a prepared vehicle state with k active requests — exactly
//     the quantity those figures plot;
//   - ACRT benchmarks (Table I/II, Figs. 6b/c, 7b/c, 9c, occupancy) replay
//     a full miniature simulation, measuring end-to-end request matching.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// benchWorld is a small city shared by all benchmarks (static after init).
type benchWorld struct {
	g      *roadnet.Graph
	oracle sp.Oracle
	reqs   []sim.Request
}

var worldCache = map[int64]*benchWorld{}

func getWorld(b *testing.B, seed int64) *benchWorld {
	b.Helper()
	if w, ok := worldCache[seed]; ok {
		return w
	}
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.004, Trips: 150, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWorld{
		g:      world.Graph,
		oracle: cache.New(sp.NewBidirectional(world.Graph), world.Graph.N(), 1<<20, 1<<12),
		reqs:   world.Requests,
	}
	worldCache[seed] = w
	return w
}

// scenario is a prepared vehicle state plus a new request to trial-insert.
type scenario struct {
	tree  *core.Tree     // fresh clone source is impossible; tree scenarios trial and discard
	inst  *core.Instance // for stateless schedulers (includes the new trip last)
	trial core.TripState
}

// makeScenarios builds vehicle states carrying k active trips under the
// given constraints, paired with a new nearby request.
func makeScenarios(b *testing.B, w *benchWorld, count, k, capacity int, waitMin, eps float64, treeOpts core.TreeOptions) []scenario {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(k)*1000 + 7))
	waitMeters := waitMin * 60 * roadnet.Speed
	n := int32(w.g.N())
	var out []scenario
	for attempts := 0; len(out) < count && attempts < count*200; attempts++ {
		origin := roadnet.VertexID(rng.Int31n(n))
		opts := treeOpts
		opts.Capacity = capacity
		tree := core.NewTree(w.oracle, origin, 0, opts)
		var trips []core.TripState
		ok := true
		for len(trips) < k {
			s := roadnet.VertexID(rng.Int31n(n))
			e := roadnet.VertexID(rng.Int31n(n))
			if s == e {
				continue
			}
			ts, err := core.NewTripState(int64(len(trips)), s, e, waitMeters, eps, tree.Odo(), w.oracle)
			if err != nil {
				continue
			}
			cand, accepted, err := tree.TrialInsert(ts)
			if err != nil || !accepted {
				// This state can't grow to k trips; give up on it.
				if len(trips) == 0 {
					ok = false
					break
				}
				continue
			}
			tree.Commit(cand)
			trips = append(trips, ts)
			if len(trips) == k {
				break
			}
		}
		if !ok || len(trips) < k {
			continue
		}
		// The new request to trial.
		var trial core.TripState
		for {
			s := roadnet.VertexID(rng.Int31n(n))
			e := roadnet.VertexID(rng.Int31n(n))
			if s == e {
				continue
			}
			ts, err := core.NewTripState(int64(k), s, e, waitMeters, eps, tree.Odo(), w.oracle)
			if err != nil {
				continue
			}
			trial = ts
			break
		}
		inst := &core.Instance{Origin: origin, Odo: 0, Capacity: capacity}
		inst.Trips = append(inst.Trips, trips...)
		inst.Trips = append(inst.Trips, trial)
		out = append(out, scenario{tree: tree, inst: inst, trial: trial})
	}
	if len(out) == 0 {
		b.Fatalf("could not build any scenario with k=%d", k)
	}
	return out
}

// benchART measures one scheduling trial per iteration.
func benchART(b *testing.B, w *benchWorld, algo string, scens []scenario) {
	var sched core.Scheduler
	switch algo {
	case "bruteforce":
		sched = core.NewBruteForce(w.oracle)
	case "branchbound":
		sched = core.NewBranchBound(w.oracle)
	case "mip":
		m := core.NewMIPScheduler(w.oracle, 20000)
		m.SetTimeBudget(50 * time.Millisecond) // as in the simulator
		sched = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := scens[i%len(scens)]
		if sched != nil {
			res := sched.Schedule(sc.inst)
			_ = res
		} else {
			cand, ok, err := sc.tree.TrialInsert(sc.trial)
			_ = cand
			_ = ok
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// artBenchmark runs the ART benchmark grid for one figure.
func artBenchmark(b *testing.B, ks []int, capacity int, waitMin, eps float64, algos []string) {
	w := getWorld(b, 1)
	for _, k := range ks {
		for _, algo := range algos {
			b.Run(fmt.Sprintf("req=%d/%s", k, algo), func(b *testing.B) {
				opts := core.TreeOptions{}
				switch algo {
				case "ktree-slack":
					opts.Slack = true
				case "ktree-hotspot":
					opts.Slack = true
					opts.HotspotTheta = 300
				}
				scens := makeScenarios(b, w, 8, k, capacity, waitMin, eps, opts)
				benchART(b, w, algo, scens)
			})
		}
	}
}

// BenchmarkFig6a: ART vs scheduled requests, four algorithms
// (capacity 4, 10 min / 20%).
func BenchmarkFig6a(b *testing.B) {
	artBenchmark(b, []int{0, 1, 2, 3}, 4, 10, 0.2,
		[]string{"ktree-slack", "branchbound", "bruteforce", "mip"})
}

// BenchmarkFig7a: ART vs scheduled requests, tree variants
// (capacity 6, 10 min / 20%).
func BenchmarkFig7a(b *testing.B) {
	artBenchmark(b, []int{0, 2, 4, 6}, 6, 10, 0.2,
		[]string{"ktree", "ktree-slack", "ktree-hotspot"})
}

// BenchmarkFig8a: ART at 4 scheduled requests vs constraints, four
// algorithms.
func BenchmarkFig8a(b *testing.B) {
	w := getWorld(b, 1)
	for _, c := range exp.Constraints {
		for _, algo := range []string{"ktree-slack", "branchbound", "bruteforce", "mip"} {
			b.Run(fmt.Sprintf("%dmin-%dpct/%s", c.WaitMinutes, c.EpsPercent, algo), func(b *testing.B) {
				opts := core.TreeOptions{Slack: true}
				scens := makeScenarios(b, w, 8, 4, 4, float64(c.WaitMinutes), float64(c.EpsPercent)/100, opts)
				benchART(b, w, algo, scens)
			})
		}
	}
}

// BenchmarkFig8b: the servers dimension of Fig. 8 varies fleet density, not
// the per-trial problem, so the bench varies the trial workload clustering
// instead (more servers = less clustered per-vehicle load in the paper).
func BenchmarkFig8b(b *testing.B) {
	artBenchmark(b, []int{4}, 4, 10, 0.2,
		[]string{"ktree-slack", "branchbound", "bruteforce", "mip"})
}

// BenchmarkFig9a: ART at 6 scheduled requests vs constraints, tree variants.
func BenchmarkFig9a(b *testing.B) {
	w := getWorld(b, 1)
	for _, c := range exp.Constraints {
		for _, algo := range []string{"ktree", "ktree-slack", "ktree-hotspot"} {
			b.Run(fmt.Sprintf("%dmin-%dpct/%s", c.WaitMinutes, c.EpsPercent, algo), func(b *testing.B) {
				opts := core.TreeOptions{}
				switch algo {
				case "ktree-slack":
					opts.Slack = true
				case "ktree-hotspot":
					opts.Slack = true
					opts.HotspotTheta = 300
				}
				scens := makeScenarios(b, w, 8, 6, 6, float64(c.WaitMinutes), float64(c.EpsPercent)/100, opts)
				benchART(b, w, algo, scens)
			})
		}
	}
}

// BenchmarkFig9b: ART at 6 scheduled requests, tree variants (fleet-size
// dimension realized as per-vehicle load, as in Fig. 8b).
func BenchmarkFig9b(b *testing.B) {
	artBenchmark(b, []int{6}, 6, 10, 0.2,
		[]string{"ktree", "ktree-slack", "ktree-hotspot"})
}

// runWorld replays the benchmark workload through one default (single
// worker, inline) dispatch engine and checks its invariants.
func runWorld(b *testing.B, w *benchWorld, algo sim.Algorithm, servers, capacity int) *sim.Metrics {
	m, err := exp.Simulate(sim.Config{
		Graph:     w.g,
		Oracle:    w.oracle,
		Servers:   servers,
		Capacity:  capacity,
		Algorithm: algo,
		Seed:      9,
	}, w.reqs)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// simBenchmark replays the benchmark workload through one configuration.
func simBenchmark(b *testing.B, algo sim.Algorithm, servers, capacity int) {
	w := getWorld(b, 2)
	for i := 0; i < b.N; i++ {
		m := runWorld(b, w, algo, servers, capacity)
		b.ReportMetric(float64(m.ACRT().Nanoseconds()), "acrt-ns")
	}
}

// BenchmarkTable1: full matching runs at the four-algorithm defaults.
func BenchmarkTable1(b *testing.B) {
	for _, algo := range []sim.Algorithm{
		sim.AlgoTreeSlack, sim.AlgoBranchBound, sim.AlgoBruteForce, sim.AlgoMIP,
	} {
		b.Run(algo.String(), func(b *testing.B) { simBenchmark(b, algo, 40, 4) })
	}
}

// BenchmarkTable2 and BenchmarkFig7bc: full matching runs at the tree
// defaults (capacity 6, smaller fleet).
func BenchmarkTable2(b *testing.B) {
	for _, algo := range []sim.Algorithm{
		sim.AlgoTreeBasic, sim.AlgoTreeSlack, sim.AlgoTreeHotspot,
	} {
		b.Run(algo.String(), func(b *testing.B) { simBenchmark(b, algo, 8, 6) })
	}
}

// BenchmarkFig6bc: the constraint/fleet sweeps of Figs. 6b/6c at their
// default point (the full sweep is cmd/experiments -exp fig6b,fig6c).
func BenchmarkFig6bc(b *testing.B) {
	for _, servers := range []int{10, 40, 80} {
		b.Run(fmt.Sprintf("servers=%d/ktree-slack", servers), func(b *testing.B) {
			simBenchmark(b, sim.AlgoTreeSlack, servers, 4)
		})
		b.Run(fmt.Sprintf("servers=%d/branchbound", servers), func(b *testing.B) {
			simBenchmark(b, sim.AlgoBranchBound, servers, 4)
		})
	}
}

// BenchmarkFig7bc: tree-variant fleet sweep at the tree defaults.
func BenchmarkFig7bc(b *testing.B) {
	for _, servers := range []int{4, 8, 20} {
		for _, algo := range []sim.Algorithm{sim.AlgoTreeBasic, sim.AlgoTreeSlack, sim.AlgoTreeHotspot} {
			b.Run(fmt.Sprintf("servers=%d/%s", servers, algo), func(b *testing.B) {
				simBenchmark(b, algo, servers, 6)
			})
		}
	}
}

// BenchmarkFig9c: capacity sweep including unlimited (capacity 0), tree
// variants; the hotspot variant is the one expected to stay flat.
func BenchmarkFig9c(b *testing.B) {
	for _, capacity := range []int{4, 6, 8, 0} {
		for _, algo := range []sim.Algorithm{sim.AlgoTreeSlack, sim.AlgoTreeHotspot} {
			name := fmt.Sprintf("cap=%d/%s", capacity, algo)
			if capacity == 0 {
				name = fmt.Sprintf("cap=unlim/%s", algo)
			}
			b.Run(name, func(b *testing.B) { simBenchmark(b, algo, 8, capacity) })
		}
	}
}

// BenchmarkDispatchThroughput: end-to-end matching throughput (requests/sec)
// of the sharded dispatch engine on a ≥1000-vehicle fleet, by worker count.
// workers=1 runs the fan-out inline on the caller and is the sequential
// baseline; on a multicore host (GOMAXPROCS > 1) higher counts beat it,
// which is the point of the sharding. The dense fleet makes every request
// trial against hundreds of candidate vehicles, exactly the load the engine
// parallelizes. The gomaxprocs metric is emitted so results from
// single-CPU hosts — where goroutines time-slice and >1 worker can only
// add overhead — are not misread as a scaling regression.
func BenchmarkDispatchThroughput(b *testing.B) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.008, Trips: 200, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	factory := func() sp.Oracle {
		return cache.New(sp.NewBidirectional(world.Graph), world.Graph.N(), 1<<20, 1<<12)
	}
	const fleet = 1200
	// The obs=on variants run the identical workload with lifecycle
	// tracing and live counters enabled — the acceptance bar is that full
	// instrumentation costs under 5% of throughput (assignments are
	// bit-identical either way; the traced equivalence tests pin that).
	for _, bc := range []struct {
		workers int
		obsOn   bool
	}{
		{1, false}, {2, false}, {4, false}, {8, false},
		{1, true}, {4, true},
	} {
		workers := bc.workers
		name := fmt.Sprintf("workers=%d", workers)
		if bc.obsOn {
			name += "/obs=on"
		}
		b.Run(name, func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := sim.Config{
					Graph:     world.Graph,
					Servers:   fleet,
					Capacity:  4,
					Algorithm: sim.AlgoTreeSlack,
					Seed:      9,
					Workers:   workers,
				}
				if bc.obsOn {
					cfg.Trace = obs.NewTracer(0)
					cfg.Live = &obs.Live{}
				}
				e, err := dispatch.New(cfg, factory)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := range world.Requests {
					e.Submit(world.Requests[j])
				}
				b.StopTimer()
				m = e.Metrics()
				if m.Matched == 0 {
					b.Fatal("nothing matched")
				}
				// Aggregate distance-cache hit rate across the shards, so a
				// single-core smoke run still shows whether the per-shard
				// caches are re-learning each other's distances.
				b.ReportMetric(m.DistCacheHitRate()*100, "dist-hit-%")
				e.Close()
				b.StartTimer()
			}
			reqPerSec := float64(len(world.Requests)) * float64(b.N) / b.Elapsed().Seconds()
			p99Match := m.MatchLatency.Quantile(0.99)
			b.ReportMetric(reqPerSec, "req/s")
			b.ReportMetric(float64(p99Match), "p99-match-ns")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			if dir := obs.BenchDir(); dir != "" {
				benchName := fmt.Sprintf("dispatch_throughput_workers%d", workers)
				if bc.obsOn {
					benchName += "_obs"
				}
				r := obs.NewBenchResult(benchName)
				r.Metrics["req_per_sec"] = reqPerSec
				r.Metrics["p99_match_latency_ns"] = float64(p99Match)
				r.Metrics["dist_cache_hit_rate"] = m.DistCacheHitRate()
				r.Metrics["path_cache_hit_rate"] = m.PathCacheHitRate()
				if err := obs.WriteBench(dir, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracedOverheadGuard: the acceptance guard for the observability
// layer's hot-path cost. It runs the BenchmarkDispatchThroughput/workers=1
// workload twice per round — untraced, then with full instrumentation
// (lifecycle events + causal spans + live counters) — interleaved, and
// compares the MINIMUM wall time of each variant across the rounds:
// min-of-N is robust to scheduler noise where means are not, so the guard
// can hard-fail instead of merely reporting. Traced must stay within 5%
// of untraced. Run with -benchtime=1x (the paired measurement is internal
// and independent of b.N).
func BenchmarkTracedOverheadGuard(b *testing.B) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.006, Trips: 150, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	factory := func() sp.Oracle {
		return cache.New(sp.NewBidirectional(world.Graph), world.Graph.N(), 1<<20, 1<<12)
	}
	run := func(traced bool) time.Duration {
		cfg := sim.Config{
			Graph:     world.Graph,
			Servers:   600,
			Capacity:  4,
			Algorithm: sim.AlgoTreeSlack,
			Seed:      9,
			Workers:   1,
		}
		if traced {
			cfg.Trace = obs.NewTracer(0)
			cfg.Live = &obs.Live{}
		}
		e, err := dispatch.New(cfg, factory)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for j := range world.Requests {
			e.Submit(world.Requests[j])
		}
		elapsed := time.Since(start)
		if e.Metrics().Matched == 0 {
			b.Fatal("nothing matched")
		}
		e.Close()
		return elapsed
	}
	// One warmup of each variant primes the oracle caches and the
	// allocator before anything is timed.
	run(false)
	run(true)
	const rounds = 7
	for i := 0; i < b.N; i++ {
		var minOff, minOn time.Duration
		for r := 0; r < rounds; r++ {
			if off := run(false); r == 0 || off < minOff {
				minOff = off
			}
			if on := run(true); r == 0 || on < minOn {
				minOn = on
			}
		}
		overhead := float64(minOn-minOff) / float64(minOff)
		b.ReportMetric(overhead*100, "traced-overhead-%")
		if overhead > 0.05 {
			b.Fatalf("traced run overhead %.2f%% (untraced min %v, traced min %v) exceeds the 5%% budget",
				overhead*100, minOff, minOn)
		}
	}
}

// BenchmarkDispatchCacheHitRate: the shared-vs-per-shard distance cache
// comparison on a multi-shard workload. Both configurations run the same
// fleet and request stream at 4 workers / 4 shards; "per-shard" gives each
// shard a cold private LRU (the pre-shared-stack layout), "shared" runs all
// shards against one striped cache.Shared. The dist-hit-% metric is the
// aggregate distance-cache hit rate — shared must be at least as high,
// since every shard's misses feed every other shard — and req/s plus
// gomaxprocs are emitted so throughput effects on single-core hosts are
// not misread.
func BenchmarkDispatchCacheHitRate(b *testing.B) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.008, Trips: 200, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	const workers = 4
	for _, mode := range []string{"per-shard", "shared"} {
		b.Run("cache="+mode, func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := sim.Config{
					Graph:     world.Graph,
					Servers:   1200,
					Capacity:  4,
					Algorithm: sim.AlgoTreeSlack,
					Seed:      9,
					Workers:   workers,
				}
				var e *dispatch.Engine
				var err error
				if mode == "shared" {
					cfg.Oracle = cache.NewShared(func() sp.Oracle {
						return sp.NewBidirectional(world.Graph)
					}, world.Graph.N(), 1<<20, 1<<12, 0)
					e, err = dispatch.New(cfg, nil)
				} else {
					e, err = dispatch.New(cfg, func() sp.Oracle {
						return cache.New(sp.NewBidirectional(world.Graph), world.Graph.N(), 1<<20, 1<<12)
					})
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := range world.Requests {
					e.Submit(world.Requests[j])
				}
				b.StopTimer()
				m := e.Metrics()
				if m.Matched == 0 {
					b.Fatal("nothing matched")
				}
				hitRate = m.DistCacheHitRate()
				e.Close()
				b.StartTimer()
			}
			b.ReportMetric(hitRate*100, "dist-hit-%")
			b.ReportMetric(float64(len(world.Requests))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkDispatchBatchThroughput: the same fleet matched in 30-second
// batch windows, the batching route to throughput of Simonetto et al.
func BenchmarkDispatchBatchThroughput(b *testing.B) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.008, Trips: 200, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	factory := func() sp.Oracle {
		return cache.New(sp.NewBidirectional(world.Graph), world.Graph.N(), 1<<20, 1<<12)
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := sim.Config{
					Graph:       world.Graph,
					Servers:     1200,
					Capacity:    4,
					Algorithm:   sim.AlgoTreeSlack,
					Seed:        9,
					Workers:     workers,
					BatchWindow: 30,
				}
				e, err := dispatch.New(cfg, factory)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := range world.Requests {
					e.Enqueue(world.Requests[j])
				}
				e.Flush()
				b.StopTimer()
				e.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(len(world.Requests))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkBatchConflictRepair: dense batch windows on a scarce fleet —
// the worst case for intra-batch conflicts, and the tail-latency hot spot
// batching is meant to fix. Incremental repair re-trials only the
// candidates dirtied by earlier commits in the flush and merges them with
// the surviving clean phase-1 trials; `trials-saved` counts the trial
// insertions a full re-fan-out would have re-run per run, and
// `saved/conflict` is the per-conflicted-request reduction (strictly
// positive whenever a conflicted request had any clean or infeasible
// candidates). Run under -race in CI so the repair path's shard fan-out is
// exercised by the detector.
func BenchmarkBatchConflictRepair(b *testing.B) {
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.008, Trips: 200, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	factory := func() sp.Oracle {
		return cache.New(sp.NewBidirectional(world.Graph), world.Graph.N(), 1<<20, 1<<12)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := sim.Config{
					Graph:       world.Graph,
					Servers:     60, // scarce: every window contends for the same vehicles
					Capacity:    4,
					Algorithm:   sim.AlgoTreeSlack,
					Seed:        9,
					Workers:     workers,
					BatchWindow: 300,
				}
				e, err := dispatch.New(cfg, factory)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := range world.Requests {
					e.Enqueue(world.Requests[j])
				}
				e.Flush()
				b.StopTimer()
				m = e.Metrics()
				if m.ConflictsRepaired == 0 {
					b.Fatal("no conflicts repaired — the workload never exercised the repair path")
				}
				e.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(m.ConflictsRepaired), "conflicts")
			b.ReportMetric(float64(m.RetrialTrialsSaved), "trials-saved")
			b.ReportMetric(float64(m.RetrialTrialsSaved)/float64(m.ConflictsRepaired), "saved/conflict")
			b.ReportMetric(float64(len(world.Requests))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkOccupancy: unlimited-capacity run reporting the occupancy stats
// of §VI-B alongside the timing.
func BenchmarkOccupancy(b *testing.B) {
	w := getWorld(b, 2)
	for i := 0; i < b.N; i++ {
		max, mean, top := runWorld(b, w, sim.AlgoTreeHotspot, 8, 0).OccupancyStats()
		b.ReportMetric(float64(max), "peak-max")
		b.ReportMetric(mean, "peak-mean")
		b.ReportMetric(top, "peak-top20")
	}
}
