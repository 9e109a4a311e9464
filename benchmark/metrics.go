package main

import (
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// metricDef describes one reported number. The tables below are the single
// list of what the suite prints; BENCHMARK.json repeats name, unit,
// direction and bound (a test keeps the two identical) and README.md repeats
// the definitions.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string  // per-layer only: R, W, S or P (see README.md)
	Def    string
}

// endToEnd are the numbers a user of the dispatcher would see, the same set
// on every workload. Timings come from the closed and paced passes, with the
// program's tracing off. "Closed" without more means the first closed pass:
// the second decides every request the same way, so its counts are the same.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "stack build start to first measured request: city, oracle stack, engine and fleet, warm-up; median over the stacks the run builds (four, five with -trace 1)"},
	{Name: "capacity_rps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "closed passes: measured requests / wall time from the first measured sink entry to the last decision, each block of 100 requests taken from the faster of the run's two passes"},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "closed passes: process user+system CPU (getrusage) over the measured segment / requests, block by block from the pass that used less"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "paced passes: median over the requests of due time -> return of the sink call that decided the request, each request taken from the pass that served it sooner"},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "paced passes: 95th percentile of the same (600 requests, 30 beyond it)"},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.05,
		Def: "HeapAlloc after a forced GC at the end of the first closed pass, stack still live (caches and labels count)"},
	{Name: "served_frac", Unit: "ratio", Better: "higher", Bound: 0.15,
		Def: "closed phase: matched / requests, warm-up included"},
	{Name: "mean_wait_s", Unit: "s", Better: "lower", Bound: 0.15,
		Def: "closed phase: pickup distance driven after the request / matched / vehicle speed"},
	{Name: "mean_detour", Unit: "ratio", Better: "lower", Bound: 0.03,
		Def: "closed phase: ride metres / shortest metres over completed trips"},
	{Name: "vehicle_km_per_served", Unit: "km", Better: "lower", Bound: 0.2,
		Def: "closed phase: fleet kilometres (service and idle cruising) up to the last arrival / matched"},
}

// perLayer are the single-layer numbers, named module.metric.
var perLayer = []metricDef{
	{Name: "roadnet.build_s", Unit: "s", Better: "lower", Source: "S", Def: "roadnet.SyntheticCity, closed phase"},
	{Name: "sp.build_s", Unit: "s", Better: "lower", Source: "S", Def: "oracle stack construction (cache.NewSharedDefault over bidirectional Dijkstra); where preprocessing will land"},
	{Name: "dispatch.build_s", Unit: "s", Better: "lower", Source: "S", Def: "dispatch.New: shards, per-shard oracles, grids, fleet placement"},
	{Name: "dispatch.warmup_s", Unit: "s", Better: "lower", Source: "S", Def: "the 300 warm-up requests through the whole pipeline"},

	{Name: "workload.gen_ns_per_req", Unit: "ns", Better: "lower", Source: "S", Def: "paced, both passes: mean time inside Generator.Next"},
	{Name: "ingest.submit_ns_per_req", Unit: "ns", Better: "lower", Source: "S", Def: "paced, both passes: mean time inside Producer.Submit+Skip (queue near empty, so admission cost, not blocking)"},
	{Name: "ingest.fanin_ns_per_req", Unit: "ns", Better: "lower", Source: "P", Def: "gateway alone: one producer, no-op sink, wall / request"},

	{Name: "ingest.queue_wait_p50_ms", Unit: "ms", Better: "lower", Source: "S", Def: "paced, both passes pooled: due time -> sink entry, median"},
	{Name: "ingest.queue_wait_p99_ms", Unit: "ms", Better: "lower", Source: "S", Def: "paced, both passes pooled: due time -> sink entry, tail percentile (p99 at 1,200 samples)"},
	{Name: "ingest.gen_late_p99_ms", Unit: "ms", Better: "lower", Source: "S", Def: "paced, both passes pooled: due time -> actual submission (how late the load driver ran), tail percentile"},
	{Name: "ingest.queue_peak", Unit: "count", Better: "lower", Source: "S", Def: "paced: most requests submitted but not yet handed to the engine at once, in either pass"},
	{Name: "ingest.shed", Unit: "count", Better: "lower", Source: "R", Def: "requests the gateway shed, all closed and paced passes (Block policy: 0)"},

	{Name: "dispatch.sink_ms_per_req", Unit: "ms", Better: "lower", Source: "S", Def: "closed: mean wall time of the sink call (Submit or Enqueue)"},
	{Name: "dispatch.match_p50_ms", Unit: "ms", Better: "lower", Source: "R", Def: "closed: Metrics.MatchLatency median (per-request search time; 12.5% buckets)"},
	{Name: "dispatch.match_p99_ms", Unit: "ms", Better: "lower", Source: "R", Def: "closed: Metrics.MatchLatency p99"},
	{Name: "dispatch.utilisation", Unit: "ratio", Better: "lower", Source: "S", Def: "paced, both passes: sink busy time / wall time"},
	{Name: "dispatch.cores_busy", Unit: "count", Better: "lower", Source: "S", Def: "closed: cpu_ms_per_req * capacity_rps / 1000"},
	{Name: "dispatch.flush_p50_ms", Unit: "ms", Better: "lower", Source: "R", Def: "closed, batch mode: Metrics.FlushLatency median"},
	{Name: "dispatch.flush_p99_ms", Unit: "ms", Better: "lower", Source: "R", Def: "closed, batch mode: Metrics.FlushLatency p99"},
	{Name: "dispatch.phase1_ms_mean", Unit: "ms", Better: "lower", Source: "R", Def: "closed, batch mode: mean phase-1 fan-out per flush"},
	{Name: "dispatch.repair_ms_mean", Unit: "ms", Better: "lower", Source: "R", Def: "closed, batch mode: mean incremental repair"},
	{Name: "dispatch.conflicts_repaired", Unit: "count", Better: "lower", Source: "R", Def: "closed, batch mode: requests repaired after an earlier commit in their window"},
	{Name: "dispatch.retrials_saved", Unit: "count", Better: "higher", Source: "R", Def: "closed, batch mode: trial insertions a full re-fan-out would have re-run"},

	{Name: "sim.trials_per_req", Unit: "count", Better: "lower", Source: "R", Def: "closed: trial insertions / request over the measured segment"},
	{Name: "sim.selectivity", Unit: "ratio", Better: "lower", Source: "R", Def: "trials_per_req / fleet: share of the fleet the grid lets through"},
	{Name: "sim.trial_fail_frac", Unit: "ratio", Better: "lower", Source: "R", Def: "closed: trials that found no valid schedule / trials (wasted work)"},
	{Name: "sim.rejected_frac", Unit: "ratio", Better: "lower", Source: "R", Def: "closed: rejected / requests"},
	{Name: "sim.violations", Unit: "count", Better: "lower", Source: "R", Def: "service-guarantee violations the engine counted, all phases of the run (must become 0; see Known at baseline)"},
	{Name: "sim.occupancy_mean", Unit: "count", Better: "higher", Source: "R", Def: "mean over vehicles of peak simultaneous passengers"},
	{Name: "sim.occupancy_top20", Unit: "count", Better: "higher", Source: "R", Def: "the same over the fullest fifth of the fleet"},
	{Name: "sim.trial_us_k0", Unit: "us", Better: "lower", Source: "R", Def: "mean trial time on vehicles with 0 active trips (Metrics.ART)"},
	{Name: "sim.trial_us_k2", Unit: "us", Better: "lower", Source: "R", Def: "... with 2 active trips"},
	{Name: "sim.trial_us_k4", Unit: "us", Better: "lower", Source: "R", Def: "... with 4 active trips"},
	{Name: "sim.reports_per_req", Unit: "count", Better: "lower", Source: "R", Def: "position reports the fleet makes per request: fleet * simulated span / report interval / requests"},
	{Name: "sim.advance_idle_ns_per_report", Unit: "ns", Better: "lower", Source: "P", Def: "Worker.AdvanceTo of an idle vehicle over one report interval"},
	{Name: "sim.advance_busy_ns_per_report", Unit: "ns", Better: "lower", Source: "P", Def: "Worker.AdvanceTo of a vehicle driving a committed trip, per report interval"},
	{Name: "sim.drain_s", Unit: "s", Better: "lower", Source: "S", Def: "closed: Engine.Drain after the stream ended"},

	{Name: "core.insert_us_k0", Unit: "us", Better: "lower", Source: "P", Def: "Tree.TrialInsert on an empty tree over sp.Matrix (tree logic, no search)"},
	{Name: "core.insert_us_k2", Unit: "us", Better: "lower", Source: "P", Def: "... on trees holding 2 waiting trips"},
	{Name: "core.insert_us_k4", Unit: "us", Better: "lower", Source: "P", Def: "... 4 waiting trips"},
	{Name: "core.insert_us_k6", Unit: "us", Better: "lower", Source: "P", Def: "... 6 waiting trips"},
	{Name: "core.setloc_us_k4", Unit: "us", Better: "lower", Source: "P", Def: "Tree.SetLocation (eager pruning) per vertex step on 4-trip trees"},
	{Name: "core.tree_nodes_max", Unit: "count", Better: "lower", Source: "R", Def: "closed: largest committed kinetic tree"},

	{Name: "spatial.within_ns_per_query", Unit: "ns", Better: "lower", Source: "P", Def: "GridIndex.Within at the workload's fleet, tuned cell and candidate radius"},
	{Name: "spatial.candidates_per_query", Unit: "count", Better: "lower", Source: "P", Def: "candidates Within returns per query"},
	{Name: "spatial.update_ns_per_move", Unit: "ns", Better: "lower", Source: "P", Def: "GridIndex.Update per position report"},
	{Name: "spatial.cell_crossing_frac", Unit: "ratio", Better: "lower", Source: "P", Def: "updates that crossed a cell boundary"},

	{Name: "cache.dist_hit_rate", Unit: "ratio", Better: "higher", Source: "R", Def: "closed, measured segment: shared distance-cache hits / lookups"},
	{Name: "cache.path_hit_rate", Unit: "ratio", Better: "higher", Source: "R", Def: "closed, measured segment: path-cache hits / lookups"},
	{Name: "cache.dist_hit_ns", Unit: "ns", Better: "lower", Source: "R", Def: "closed: mean sampled latency of a distance lookup served by the cache"},
	{Name: "cache.dist_miss_ns", Unit: "ns", Better: "lower", Source: "R", Def: "closed: mean sampled latency of a lookup that ran a search"},
	{Name: "cache.dist_lookups_per_req", Unit: "count", Better: "lower", Source: "R", Def: "closed, measured segment: distance lookups reaching the cache / request"},

	{Name: "sp.dist_calls_per_req", Unit: "count", Better: "lower", Source: "W", Def: "traced: Oracle.Dist calls / request"},
	{Name: "sp.path_calls_per_req", Unit: "count", Better: "lower", Source: "W", Def: "traced: Oracle.Path calls / request"},
	{Name: "sp.dist_us_per_call", Unit: "us", Better: "lower", Source: "W", Def: "traced: mean wall time of a Dist call, hits and misses together"},
	{Name: "sp.busy_frac", Unit: "ratio", Better: "lower", Source: "W", Def: "traced: wall time inside the oracle stack, summed over shards / process CPU time (above 1 when a worker is descheduled inside a call)"},
	{Name: "sp.search_us_per_query", Unit: "us", Better: "lower", Source: "P", Def: "raw backend Dist, uncached: half the pairs inside the candidate radius, half the workload's own trips"},
	{Name: "sp.path_us_per_query", Unit: "us", Better: "lower", Source: "P", Def: "raw backend Path on the same pairs"},

	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower", Source: "R", Def: "1 - traced req/s / closed req/s over the same first 1,000 measured requests (guard: < 0.05 plus wrapper cost)"},
	{Name: "obs.stage_ms.queue_wait", Unit: "ms", Better: "lower", Source: "R", Def: "traced: obs.Analyze mean per request, gateway residency"},
	{Name: "obs.stage_ms.match", Unit: "ms", Better: "lower", Source: "R", Def: "traced: match span self time"},
	{Name: "obs.stage_ms.phase1", Unit: "ms", Better: "lower", Source: "R", Def: "traced: slowest shard's trial insertions"},
	{Name: "obs.stage_ms.flush", Unit: "ms", Better: "lower", Source: "R", Def: "traced, batch mode: mean flush span"},
	{Name: "obs.stage_ms.repair", Unit: "ms", Better: "lower", Source: "R", Def: "traced, batch mode: mean repair span"},

	{Name: "bench.latency_p99_ms", Unit: "ms", Better: "lower", Source: "S", Def: "paced, both passes pooled as measured: tail percentile of due time -> decision (p99 at 1,200 samples); reported, not gated: 12 samples beyond it are at the mercy of one host stall"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Source: "R", Def: "closed: GC stop-the-world total over the measured segment"},
	{Name: "go.allocs_per_req", Unit: "count", Better: "lower", Source: "R", Def: "closed: heap objects allocated (Mallocs delta) / request; exact for a seed, but a few requests per run grow trees of thousands of nodes, so it jumps between seeds on downtown_resident"},
	{Name: "go.alloc_kb_per_req", Unit: "KiB", Better: "lower", Source: "R", Def: "closed: bytes allocated (TotalAlloc delta) / request; mostly the distance cache's tables growing, in steps, so it jumps between seeds on sharing_peak and hotspot_batch"},
	{Name: "go.heap_sys_mb", Unit: "MiB", Better: "lower", Source: "R", Def: "closed: heap memory obtained from the OS"},
	{Name: "bench.layer_cover_frac", Unit: "ratio", Better: "higher", Source: "P", Def: "sum of probe cost x in-run count / closed CPU; reported, not gated"},
}

func sumNs(xs []int64) float64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

const mib = 1 << 20

// round is one closed and one paced pass. A run makes several rounds over the
// same seed, closed and paced passes alternating, so that each kind is
// measured at moments some tens of seconds apart.
type round struct{ closed, paced *phaseResult }

// endToEndValues computes the end-to-end metrics from the untraced rounds.
// Every pass of a kind does the same work, decision for decision, so a timing
// is taken block by block (capacity, CPU) or request by request (latency)
// from the fastest pass; counts come from the first. setups are the set-up
// times of every stack built in the run.
func endToEndValues(rounds []round, setups []time.Duration) map[string]float64 {
	closed := rounds[0].closed
	n := float64(closed.measured)
	var walls, cpus, latencies [][]time.Duration
	for _, r := range rounds {
		walls = append(walls, r.closed.blockWall)
		cpus = append(cpus, r.closed.blockCPU)
		latencies = append(latencies, r.paced.latency)
	}
	lat := sortedCopy(durationsMs(fastest(latencies...)))
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	fin := closed.final
	return map[string]float64{
		"setup_s":               median(setupS),
		"capacity_rps":          n / sumDurations(fastest(walls...)).Seconds(),
		"cpu_ms_per_req":        ms(sumDurations(fastest(cpus...))) / n,
		"latency_p50_ms":        percentile(lat, 0.5),
		"latency_p95_ms":        percentile(lat, math.Min(0.95, tailPercentile(len(lat)))),
		"heap_live_mb":          float64(closed.heapLive) / mib,
		"served_frac":           ratio(float64(fin.Matched), float64(fin.Requests)),
		"mean_wait_s":           ratio(fin.TotalWaitMeters, float64(fin.Matched)) / roadnet.Speed,
		"mean_detour":           fin.MeanDetourFactor(),
		"vehicle_km_per_served": ratio(closed.end.TotalVehicleMeters/1000, float64(closed.end.Matched)),
	}
}

// artUs is the mean trial time in microseconds on vehicles with k active
// trips, 0 when the run never trialed such a vehicle.
func artUs(m *sim.Metrics, k int) float64 {
	d, _ := m.ART(k)
	return float64(d) / float64(time.Microsecond)
}

// stageMs is a stage's mean contribution per request that had it, in ms.
func stageMs(a *obs.Attribution, stage string) float64 {
	st := a.Stages[stage]
	if st == nil {
		return 0
	}
	return ratio(float64(st.TotalNs), float64(st.Requests)) / 1e6
}

// perLayerValues computes the per-layer metrics from the rounds, the traced
// pass and the stand-alone probes. Closed-phase numbers are the first round's;
// paced-phase numbers pool the samples of every round.
func perLayerValues(w workloadSpec, rounds []round, traced *phaseResult, pr probeResults, e2e map[string]float64) map[string]float64 {
	closed := rounds[0].closed
	n := float64(closed.measured)
	base, end, fin := closed.base, closed.end, closed.final
	trials := float64(end.TrialCalls - base.TrialCalls)
	lookups := float64(end.DistCacheHits + end.DistCacheMisses - base.DistCacheHits - base.DistCacheMisses)
	pathLookups := float64(end.PathCacheHits + end.PathCacheMisses - base.PathCacheHits - base.PathCacheMisses)
	_, occMean, occTop := fin.OccupancyStats()

	var latencies, queueWaits, lateness []time.Duration
	var pacedN, genNs, submitNs, pacedBusy, pacedWall float64
	queuePeak, shed, violations := 0, 0, traced.final.Violations
	for _, r := range rounds {
		p := r.paced
		latencies = append(latencies, p.latency...)
		queueWaits = append(queueWaits, p.queueing()...)
		lateness = append(lateness, p.genLate()...)
		pacedN += float64(p.measured)
		genNs += float64(p.genNs)
		submitNs += float64(p.submitNs)
		pacedBusy += sumNs(p.sinkNs)
		pacedWall += float64(p.pacedWall)
		if peak := backlogPeak(p.submitAt, p.enterAt); peak > queuePeak {
			queuePeak = peak
		}
		shed += r.closed.gateway.Shed() + p.gateway.Shed()
		violations += r.closed.final.Violations + p.final.Violations
	}
	lat := sortedCopy(durationsMs(latencies))
	queueing := sortedCopy(durationsMs(queueWaits))
	late := sortedCopy(durationsMs(lateness))
	tail := tailPercentile(len(queueing))
	closedBusy := sumNs(closed.sinkNs)

	// The traced pass replays a prefix of the closed phase's stream; the
	// closed phase's rate over the same prefix is what its rate compares to.
	tn := float64(traced.measured)
	closedPrefix := closed.retAt[traced.measured-1]
	oc := traced.oracle

	v := map[string]float64{
		"roadnet.build_s":   closed.roadnetBuild.Seconds(),
		"sp.build_s":        closed.spBuild.Seconds(),
		"dispatch.build_s":  closed.dispatchBuild.Seconds(),
		"dispatch.warmup_s": closed.warmupTime.Seconds(),

		"workload.gen_ns_per_req":  genNs / pacedN,
		"ingest.submit_ns_per_req": submitNs / pacedN,
		"ingest.fanin_ns_per_req":  pr.faninNs,

		"ingest.queue_wait_p50_ms": percentile(queueing, 0.5),
		"ingest.queue_wait_p99_ms": percentile(queueing, tail),
		"ingest.gen_late_p99_ms":   percentile(late, tail),
		"ingest.queue_peak":        float64(queuePeak),
		"ingest.shed":              float64(shed),

		"dispatch.sink_ms_per_req":    closedBusy / n / 1e6,
		"dispatch.match_p50_ms":       float64(end.MatchLatency.Quantile(0.5)) / 1e6,
		"dispatch.match_p99_ms":       float64(end.MatchLatency.Quantile(0.99)) / 1e6,
		"dispatch.utilisation":        ratio(pacedBusy, pacedWall),
		"dispatch.cores_busy":         e2e["cpu_ms_per_req"] * e2e["capacity_rps"] / 1000,
		"dispatch.flush_p50_ms":       float64(end.FlushLatency.Quantile(0.5)) / 1e6,
		"dispatch.flush_p99_ms":       float64(end.FlushLatency.Quantile(0.99)) / 1e6,
		"dispatch.phase1_ms_mean":     float64(end.Phase1Latency.Mean()) / 1e6,
		"dispatch.repair_ms_mean":     float64(end.RepairLatency.Mean()) / 1e6,
		"dispatch.conflicts_repaired": float64(end.ConflictsRepaired),
		"dispatch.retrials_saved":     float64(end.RetrialTrialsSaved),

		"sim.trials_per_req":  trials / n,
		"sim.selectivity":     trials / n / float64(w.Fleet),
		"sim.trial_fail_frac": ratio(float64(end.TrialFailures-base.TrialFailures), trials),
		"sim.rejected_frac":   ratio(float64(fin.Rejected), float64(fin.Requests)),
		"sim.violations":      float64(violations),
		"sim.occupancy_mean":  occMean,
		"sim.occupancy_top20": occTop,
		"sim.trial_us_k0":     artUs(end, 0),
		"sim.trial_us_k2":     artUs(end, 2),
		"sim.trial_us_k4":     artUs(end, 4),
		"sim.reports_per_req": float64(w.Fleet) * closed.simSpan / reportInterval / n,
		"sim.drain_s":         closed.drain.Seconds(),

		"sim.advance_idle_ns_per_report": pr.advanceIdleNs,
		"sim.advance_busy_ns_per_report": pr.advanceBusyNs,

		"core.insert_us_k0":   pr.insertUs[0],
		"core.insert_us_k2":   pr.insertUs[2],
		"core.insert_us_k4":   pr.insertUs[4],
		"core.insert_us_k6":   pr.insertUs[6],
		"core.setloc_us_k4":   pr.setlocUs,
		"core.tree_nodes_max": float64(fin.TreeNodesMax),

		"spatial.within_ns_per_query":  pr.withinNs,
		"spatial.candidates_per_query": pr.candidates,
		"spatial.update_ns_per_move":   pr.updateNs,
		"spatial.cell_crossing_frac":   pr.crossingFrac,

		"cache.dist_hit_rate":        ratio(float64(end.DistCacheHits-base.DistCacheHits), lookups),
		"cache.path_hit_rate":        ratio(float64(end.PathCacheHits-base.PathCacheHits), pathLookups),
		"cache.dist_hit_ns":          float64(end.DistHitLatency.Mean()),
		"cache.dist_miss_ns":         float64(end.DistMissLatency.Mean()),
		"cache.dist_lookups_per_req": lookups / n,

		"sp.dist_calls_per_req":  float64(oc.distCalls) / tn,
		"sp.path_calls_per_req":  float64(oc.pathCalls) / tn,
		"sp.dist_us_per_call":    ratio(float64(oc.distNs), float64(oc.distCalls)) / 1e3,
		"sp.busy_frac":           ratio(float64(oc.distNs+oc.pathNs), float64(traced.cpu)),
		"sp.search_us_per_query": pr.searchUs,
		"sp.path_us_per_query":   pr.pathUs,

		"obs.trace_overhead_frac": 1 - ratio(tn/traced.wall.Seconds(), tn/closedPrefix.Seconds()),
		"obs.stage_ms.queue_wait": stageMs(traced.attribution, "queue_wait"),
		"obs.stage_ms.match":      stageMs(traced.attribution, "match"),
		"obs.stage_ms.phase1":     stageMs(traced.attribution, "phase1"),
		"obs.stage_ms.flush":      traced.flushSpanMs,
		"obs.stage_ms.repair":     stageMs(traced.attribution, "repair"),

		"bench.latency_p99_ms": percentile(lat, tailPercentile(len(lat))),
		"go.gc_pause_ms":       ms(closed.gcPause),
		"go.allocs_per_req":    float64(closed.mallocs) / n,
		"go.alloc_kb_per_req":  float64(closed.allocBytes) / n / 1024,
		"go.heap_sys_mb":       float64(closed.heapSys) / mib,
	}

	// Layer cover: the share of the closed phase's CPU time that the
	// stand-alone probe costs, multiplied by how often the phase did each
	// thing, account for. Fleet
	// motion's own oracle calls are inside the cache counters, not
	// separable from the trials' without spans inside the program.
	misses := float64(end.DistCacheMisses - base.DistCacheMisses)
	hits := lookups - misses
	pathMisses := float64(end.PathCacheMisses - base.PathCacheMisses)
	reports := v["sim.reports_per_req"] * n
	modelled := misses*pr.searchUs*1e3 + hits*v["cache.dist_hit_ns"] + pathMisses*pr.pathUs*1e3 +
		trials*meanInsertUs(end, pr)*1e3 + n*pr.withinNs + reports*(pr.updateNs+pr.advanceIdleNs) + n*pr.faninNs
	v["bench.layer_cover_frac"] = ratio(modelled, float64(closed.cpu))
	return v
}

// reportInterval is sim.Config's default seconds between position reports,
// which every workload leaves unset.
const reportInterval = 30.0

// meanInsertUs weights the tree-insert probes by how often the run trialed
// vehicles of each size (ART bucket counts; sizes between probes use the
// nearest probed size below).
func meanInsertUs(m *sim.Metrics, pr probeResults) float64 {
	var sum, count float64
	for _, k := range m.ARTBuckets() {
		_, c := m.ART(k)
		probe := k - k%2
		if probe > 6 {
			probe = 6
		}
		sum += float64(c) * pr.insertUs[probe]
		count += float64(c)
	}
	return ratio(sum, count)
}
