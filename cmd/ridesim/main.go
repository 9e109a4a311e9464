// Command ridesim runs one ridesharing simulation and prints its metrics.
//
//	ridesim -scale 0.02 -servers 200 -algo ktree-slack -capacity 6
//	ridesim -graph city.bin -trips trips.csv -algo branchbound
//	ridesim -scale 0.02 -servers 2000 -workers 8 -batch 10 -cache-stripes 64
//	ridesim -scale 0.02 -servers 2000 -workers 4 -producers 8 -arrival surge
//
// Without -graph/-trips it generates a synthetic city and workload at the
// requested scale. Every run goes through the dispatch engine
// (internal/dispatch): -workers sizes its trial worker pool (one worker,
// the default, runs the shards inline with no pool), -shards partitions
// the fleet, and -batch matches requests in fixed windows instead of on
// arrival; worker and shard counts change throughput, never assignments.
// Caching backends ("+lru") run all shards against one fleet-wide shared
// distance cache (cache.Shared); -dist-cache/-path-cache/-cache-stripes
// size it, and the end-of-run summary reports its hit rates.
//
// With -producers N the request stream enters through the concurrent
// ingress gateway (internal/ingest): N producer goroutines submit into
// per-shard bounded queues (-queue-depth) under the chosen backpressure
// policy (-shed-policy block|shed-oldest|deadline|adaptive), and the
// stamped-order drain feeds the engine. The adaptive policy runs the
// SLO-driven admission controller: -slo sets the wall-clock residence
// target it defends. -arrival poisson|surge|hotspot replaces the
// replayed trace with the streaming open-loop generator
// (internal/workload); combined with -producers the stream is generated
// and served live rather than materialized. The end-of-run summary gains
// an ingress line (admitted/shed/queue peak/p99 ingress wait).
//
// -fault-plan <name> arms the deterministic fault-injection harness
// (internal/faults) across all three seams — producer crashes/skew/
// bursts, worker stalls, oracle latency spikes and transient errors
// behind the bounded-retry facade — and prints an injection summary.
// Plans are seed-deterministic: the same plan and workload injects the
// same faults every run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// options carries every flag; run takes it whole instead of a parameter
// per flag.
type options struct {
	scale        float64
	graphPath    string
	tripsPath    string
	servers      int
	autoTune     bool
	capacity     int
	waitMin      float64
	epsPct       float64
	algoName     string
	theta        float64
	lazy         bool
	oracleSel    string
	seed         int64
	artOut       bool
	jsonOut      bool
	workers      int
	shards       int
	batchWin     float64
	distEntries  int
	pathEntries  int
	cacheStripes int
	producers    int
	queueDepth   int
	shedPolicy   string
	slo          time.Duration
	sloObjective float64
	faultPlan    string
	arrival      string
	obsAddr      string
	obsInterval  time.Duration
	traceOut     string
	traceCap     int
}

// defineFlags registers every ridesim flag on fs; the returned options are
// filled in when fs is parsed.
func defineFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.Float64Var(&o.scale, "scale", 0.02, "synthetic world scale when no -graph is given")
	fs.StringVar(&o.graphPath, "graph", "", "road network file (RNG1 format, see genmap)")
	fs.StringVar(&o.tripsPath, "trips", "", "trip CSV (see gentrips); requires -graph")
	fs.IntVar(&o.servers, "servers", 200, "fleet size")
	fs.BoolVar(&o.autoTune, "auto-tune", false, "derive shard count and grid cell size from fleet size and graph extent")
	fs.IntVar(&o.capacity, "capacity", 4, "vehicle capacity (0 = unlimited)")
	fs.Float64Var(&o.waitMin, "wait", 10, "waiting-time constraint in minutes")
	fs.Float64Var(&o.epsPct, "eps", 20, "service constraint in percent extra ride")
	fs.StringVar(&o.algoName, "algo", "ktree-slack", "matching algorithm: ktree, ktree-slack, ktree-hotspot, bruteforce, branchbound, mip")
	fs.Float64Var(&o.theta, "theta", 300, "hotspot radius in meters (ktree-hotspot)")
	fs.BoolVar(&o.lazy, "lazy", false, "use lazy tree invalidation (paper §IV-A)")
	fs.StringVar(&o.oracleSel, "oracle", "bidij+lru", "shortest-path backend: dijkstra, bidij, astar, alt, arcflags, hublabels, bidij+lru")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.artOut, "art", false, "print the ART-by-request-count breakdown")
	fs.BoolVar(&o.jsonOut, "json", false, "emit metrics as JSON instead of text")
	fs.IntVar(&o.workers, "workers", 0, "trial worker-pool size (default 1: the shards run inline, no pool)")
	fs.IntVar(&o.shards, "shards", 0, "fleet partitions (default: one per worker)")
	fs.Float64Var(&o.batchWin, "batch", 0, "batch window in seconds; 0 matches each request on arrival")
	fs.IntVar(&o.distEntries, "dist-cache", cache.DefaultDistEntries, "distance-cache capacity in entries (caching backends)")
	fs.IntVar(&o.pathEntries, "path-cache", cache.DefaultPathEntries, "path-cache capacity in entries (caching backends)")
	fs.IntVar(&o.cacheStripes, "cache-stripes", 0, "stripe count of the shared distance cache (0 = default; caching backends)")
	fs.IntVar(&o.producers, "producers", 0, "concurrent request producers; >0 routes the stream through the ingress gateway")
	fs.IntVar(&o.queueDepth, "queue-depth", 256, "per-shard ingress queue capacity")
	fs.StringVar(&o.shedPolicy, "shed-policy", "block", "ingress backpressure policy: block, shed-oldest, deadline, adaptive")
	fs.DurationVar(&o.slo, "slo", 500*time.Millisecond, "wall-clock ingress residence SLO defended by the adaptive admission controller")
	fs.Float64Var(&o.sloObjective, "slo-objective", 0.99, "fraction of requests that must meet -slo; drives the error-budget burn account (gateway runs)")
	fs.StringVar(&o.faultPlan, "fault-plan", "", "deterministic fault-injection plan: none, "+strings.Join(faults.PlanNames(), ", "))
	fs.StringVar(&o.arrival, "arrival", "", "streaming workload pattern: poisson, surge, hotspot (default: replay the built trace)")
	fs.StringVar(&o.obsAddr, "obs-addr", "", "serve live /metrics JSON and /debug/pprof on this address (e.g. localhost:6060, :0)")
	fs.DurationVar(&o.obsInterval, "obs-interval", 0, "write interval progress snapshots to stderr as JSON lines (0 = off)")
	fs.StringVar(&o.traceOut, "trace-out", "", "drain the request lifecycle trace to this JSONL file at end of run")
	fs.IntVar(&o.traceCap, "trace-cap", 0, "per-ring trace retention in events (0 = default)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := run(*o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ridesim:", err)
		os.Exit(1)
	}
}

func parseAlgo(name string) (sim.Algorithm, error) {
	for _, a := range []sim.Algorithm{
		sim.AlgoTreeBasic, sim.AlgoTreeSlack, sim.AlgoTreeHotspot,
		sim.AlgoBruteForce, sim.AlgoBranchBound, sim.AlgoMIP,
	} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// parseOracle resolves an -oracle name to a constructor of per-shard
// backends over a graph, and reports whether the selection asked for the
// LRU caching layer on top.
func parseOracle(name string) (backend func(*roadnet.Graph) sp.Oracle, cached bool, err error) {
	switch name {
	case "dijkstra":
		return func(g *roadnet.Graph) sp.Oracle { return sp.NewDijkstra(g) }, false, nil
	case "bidij":
		return func(g *roadnet.Graph) sp.Oracle { return sp.NewBidirectional(g) }, false, nil
	case "astar":
		return func(g *roadnet.Graph) sp.Oracle { return sp.NewAStar(g) }, false, nil
	case "alt":
		return func(g *roadnet.Graph) sp.Oracle { return sp.NewALT(g, 8) }, false, nil
	case "arcflags":
		return func(g *roadnet.Graph) sp.Oracle { return sp.NewArcFlags(g, 6) }, false, nil
	case "hublabels":
		// Built on first use and then shared by every shard: HubLabels is
		// an sp.SharedOracle. (The engine builds its shard oracles from one
		// goroutine, so the lazy build needs no lock.)
		var hl *sp.HubLabels
		return func(g *roadnet.Graph) sp.Oracle {
			if hl == nil {
				hl = sp.NewHubLabels(g)
			}
			return hl
		}, false, nil
	case "bidij+lru":
		return func(g *roadnet.Graph) sp.Oracle { return sp.NewBidirectional(g) }, true, nil
	}
	return nil, false, fmt.Errorf("unknown oracle %q", name)
}

// run executes one simulation and writes its report to stdout.
func run(o options, stdout io.Writer) error {
	// Every enumerated flag value is parsed before any work, so a typo
	// fails fast with nothing on stdout and no listener opened.
	algo, err := parseAlgo(o.algoName)
	if err != nil {
		return err
	}
	backend, cached, err := parseOracle(o.oracleSel)
	if err != nil {
		return err
	}
	policy, err := ingest.ParsePolicy(o.shedPolicy)
	if err != nil {
		return err
	}
	plan, err := faults.ParsePlan(o.faultPlan)
	if err != nil {
		return err
	}
	var pattern workload.Pattern
	if o.arrival != "" {
		if pattern, err = workload.ParsePattern(o.arrival); err != nil {
			return err
		}
	}

	var g *roadnet.Graph
	var reqs []sim.Request
	switch {
	case o.graphPath != "":
		f, err := os.Open(o.graphPath)
		if err != nil {
			return err
		}
		g, err = roadnet.ReadGraph(f)
		f.Close()
		if err != nil {
			return err
		}
		if o.tripsPath != "" {
			tf, err := os.Open(o.tripsPath)
			if err != nil {
				return err
			}
			reqs, err = trace.ReadCSV(tf, g)
			tf.Close()
			if err != nil {
				return err
			}
		} else {
			reqs, err = trace.Generate(g, trace.GenOptions{Trips: 2000, Seed: o.seed})
			if err != nil {
				return err
			}
		}
	case o.tripsPath != "":
		return fmt.Errorf("-trips requires -graph")
	default:
		world, err := exp.BuildWorld(exp.WorldOptions{Scale: o.scale, Seed: o.seed})
		if err != nil {
			return err
		}
		g, reqs = world.Graph, world.Requests
	}

	// Observability: -trace-out turns on lifecycle tracing, and either of
	// -obs-addr/-obs-interval turns on the live atomic counters. Both stay
	// nil (the no-op state) otherwise — instrumentation never changes
	// matching outcomes either way.
	var tracer *obs.Tracer
	var live *obs.Live
	var slo *obs.SLOTracker
	if o.traceOut != "" {
		tracer = obs.NewTracer(o.traceCap)
	}
	if o.obsAddr != "" || o.obsInterval > 0 {
		live = &obs.Live{}
	}
	if o.producers > 0 {
		// Error-budget burn accounting only makes sense where the wall-SLO
		// is defended: gateway runs. The tracker feeds Live's burn gauge
		// and the end-of-run SLO summary.
		slo = obs.NewSLOTracker(o.sloObjective, 0)
	}
	if o.obsAddr != "" {
		srv, err := obs.Serve(o.obsAddr,
			func() any { return live.Snapshot() },
			func(pw *obs.PromWriter) { promMetrics(pw, live, slo) })
		if err != nil {
			return err
		}
		defer srv.Close()
		if !o.jsonOut {
			fmt.Fprintf(stdout, "observability: /metrics (JSON + Prometheus) and /debug/pprof/ on http://%s\n", srv.Addr())
		}
	}
	if o.obsInterval > 0 {
		rep := obs.NewReporter(os.Stderr, o.obsInterval, func() any { return live.Snapshot() })
		defer rep.Stop()
	}

	// -arrival swaps the replayed trace for the streaming open-loop
	// generator over the same graph: materialized for the direct feed,
	// streamed live through the gateway when -producers is set.
	var src ingest.Source
	var genErr func() error // post-run check: did the stream end abnormally?
	if o.arrival != "" {
		trips := len(reqs)
		if trips == 0 {
			trips = 2000
		}
		gen, err := workload.New(g, workload.Options{Pattern: pattern, Trips: trips, Seed: o.seed, Trace: tracer})
		if err != nil {
			return err
		}
		genErr = gen.Err
		if o.producers > 0 {
			src = gen
			reqs = nil
		} else {
			reqs = gen.All()
			if err := gen.Err(); err != nil {
				return err
			}
		}
	}
	if o.producers > 0 && src == nil {
		s := ingest.SliceSource(reqs)
		src = &s
	}

	if !o.jsonOut {
		if src != nil && o.arrival != "" {
			fmt.Fprintf(stdout, "network: %d vertices, %d edges; streaming %s arrivals; fleet %d x capacity %d; algo %s\n",
				g.N(), g.M(), o.arrival, o.servers, o.capacity, algo)
		} else {
			fmt.Fprintf(stdout, "network: %d vertices, %d edges; %d requests; fleet %d x capacity %d; algo %s\n",
				g.N(), g.M(), len(reqs), o.servers, o.capacity, algo)
		}
	}

	// -fault-plan arms the injector. Its oracle hooks sit ABOVE the cache
	// facades (an injected failure must never poison a cache entry) inside
	// the bounded-retry facade; worker hooks ride cfg.Faults; producer
	// hooks are handed out by DriveInjected. A nil injector leaves every
	// seam bit-identical to the unhooked pipeline.
	var inj *faults.Injector
	if plan.Enabled() {
		inj = faults.New(plan)
		// Before any hook is handed out, so injected latency shows up as
		// overlay spans in the drained trace.
		inj.SetTrace(tracer)
	}
	retryOpts := sp.RetryOptions{Seed: uint64(o.seed)}
	wrapFault := func(oracle sp.Oracle) sp.Oracle {
		if inj == nil {
			return oracle
		}
		return faults.WrapOracle(oracle, inj.Oracle(), retryOpts)
	}

	cfg := sim.Config{
		Graph:            g,
		Servers:          o.servers,
		Capacity:         o.capacity,
		WaitSeconds:      o.waitMin * 60,
		Epsilon:          o.epsPct / 100,
		Algorithm:        algo,
		HotspotTheta:     o.theta,
		LazyInvalidation: o.lazy,
		Seed:             o.seed,
		Workers:          o.workers,
		Shards:           o.shards,
		BatchWindow:      o.batchWin,
		AutoTune:         o.autoTune,
		Trace:            tracer,
		Live:             live,
		Faults:           inj,
	}

	// Allocation accounting for the tuning summary: deltas cover engine
	// construction plus the run.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// One oracle per shard. A caching backend shares one fleet-wide
	// distance cache, each shard getting a facade with a private path cache
	// and inner engine; an uncached one builds a private backend per shard
	// (or, for a SharedOracle like hublabels, hands every shard the same
	// instance). The fault wrap goes around each shard's oracle, above any
	// cache, so a degraded lookup can never poison a cache entry.
	shardOracle := func() sp.Oracle { return backend(g) }
	if cached {
		shardOracle = cache.NewShared(shardOracle, g.N(), o.distEntries, o.pathEntries, o.cacheStripes).NewWorkerOracle
	}
	eng, err := dispatch.New(cfg, func() sp.Oracle { return wrapFault(shardOracle()) })
	if err != nil {
		return err
	}
	defer eng.Close()
	if !o.jsonOut {
		fmt.Fprintf(stdout, "engine: %d workers, %d shards, batch window %gs\n",
			eng.Workers(), eng.Shards(), o.batchWin)
	}

	var m *sim.Metrics
	var ds ingest.DriveStats
	start := time.Now()
	if o.producers > 0 {
		// One bounded admission queue per engine shard (keyed by
		// dispatch.ShardIndex), the configured backpressure policy, and the
		// fleet waiting-time window for deadline shedding.
		gw := ingest.New(ingest.Config{
			Queues:      eng.Shards(),
			Depth:       o.queueDepth,
			Policy:      policy,
			WaitSeconds: cfg.WaitSeconds,
			WallSLO:     o.slo,
			SLO:         slo,
			Trace:       tracer,
			Live:        live,
		})
		m, ds, err = ingest.Run(gw, eng, src, o.producers, inj)
	} else {
		m, err = eng.Run(reqs)
	}
	wall := time.Since(start)
	if err != nil {
		return err
	}
	if err := eng.CheckInvariants(); err != nil {
		return fmt.Errorf("invariant violated: %w", err)
	}

	// A streamed generator ends its stream silently from the driver's
	// point of view; surface an abnormal (sampling-failure) ending rather
	// than reporting metrics over a quietly truncated workload.
	if genErr != nil {
		if err := genErr(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)

	// Drain the lifecycle trace once the pipeline is quiescent: events from
	// every ring, globally ordered, one JSON object per line.
	if tracer != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		written, dropped, derr := tracer.Drain(f)
		if cerr := f.Close(); derr == nil {
			derr = cerr
		}
		if derr != nil {
			return fmt.Errorf("trace drain: %w", derr)
		}
		if !o.jsonOut {
			fmt.Fprintf(stdout, "trace: %d records (events + spans) -> %s (%d dropped by ring caps)\n", written, o.traceOut, dropped)
		}
	}

	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(m.Snapshot())
	}
	fmt.Fprintf(stdout, "\n%s\nwall time: %v\n", m, wall.Round(time.Millisecond))
	max, mean, top := m.OccupancyStats()
	fmt.Fprintf(stdout, "occupancy: max=%d mean=%.2f top20%%=%.2f\n", max, mean, top)
	tunedBy := "configured"
	if m.AutoTuned {
		tunedBy = "auto-tuned"
	}
	allocBytes := ms1.TotalAlloc - ms0.TotalAlloc
	allocObjs := ms1.Mallocs - ms0.Mallocs
	bytesPerReq := float64(0)
	if m.Requests > 0 {
		bytesPerReq = float64(allocBytes) / float64(m.Requests)
	}
	fmt.Fprintf(stdout, "tuning (%s): %d shards, cell size %.0f m; alloc %.1f MB / %d objects (%.0f B/req); GC pause total %v\n",
		tunedBy, m.TunedShards, m.TunedCellSize,
		float64(allocBytes)/(1<<20), allocObjs, bytesPerReq,
		time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs).Round(time.Microsecond))
	if o.batchWin > 0 {
		fmt.Fprintf(stdout, "batch repair: %d conflicts repaired incrementally, %d retrial insertions saved vs full re-fan-out\n",
			m.ConflictsRepaired, m.RetrialTrialsSaved)
	}
	if o.producers > 0 {
		fmt.Fprintf(stdout, "ingress: %d producers, policy %s, queue depth %d; admitted %d, shed %d (overflow %d, deadline %d, adaptive %d); queue peak %d; wait mean %v p99 %v\n",
			o.producers, o.shedPolicy, o.queueDepth,
			m.Admitted, m.Shed(), m.ShedOverflow, m.ShedDeadline, m.ShedAdaptive,
			m.IngressQueuePeak,
			m.IngressWaitMean().Round(time.Microsecond), m.IngressWaitP99().Round(time.Microsecond))
		if o.shedPolicy == "adaptive" {
			fmt.Fprintf(stdout, "admission: SLO %v; shed level peak %d‰, %d controller transitions\n",
				o.slo, m.AdmissionShedPeakPM, m.AdmissionTransitions)
		}
		if slo != nil {
			snap := slo.Snapshot()
			fmt.Fprintf(stdout, "slo: objective %.2f%% within %v; good %d, bad %d; error budget consumed %.1f%%; burn %.2fx\n",
				m.SLOObjective*100, o.slo, m.SLOGood, m.SLOBad, m.SLOBudgetConsumed()*100, snap.BurnRate)
		}
	}
	if inj != nil {
		fmt.Fprintf(stdout, "faults: plan %s; %s\n", plan.Name, inj.Stats())
		if o.producers > 0 {
			fmt.Fprintf(stdout, "drive: sourced %d, submitted %d, dropped %d, discarded %d\n",
				ds.Sourced, ds.Submitted, ds.Dropped, ds.Discarded)
		}
	}
	printCacheStats(stdout, m)
	if o.artOut {
		fmt.Fprintln(stdout, "\nART by scheduled requests:")
		for _, b := range m.ARTBuckets() {
			d, n := m.ART(b)
			fmt.Fprintf(stdout, "  %2d requests: %10v  (%d trials)\n", b, d, n)
		}
	}
	return nil
}

// promMetrics renders the live counter surface (and, on gateway runs, the
// SLO error-budget account) in the Prometheus text format for /metrics
// scrapes. Everything here is atomics or mutex-guarded snapshots — safe
// to read mid-run, unlike the quiescent-only histograms.
func promMetrics(pw *obs.PromWriter, live *obs.Live, slo *obs.SLOTracker) {
	s := live.Snapshot()
	pw.Counter("ridesim_requests_total", "Requests submitted to the matching engine.", s.Requests, nil)
	pw.Counter("ridesim_matched_total", "Requests assigned a vehicle.", s.Matched, nil)
	pw.Counter("ridesim_rejected_total", "Requests no vehicle could serve.", s.Rejected, nil)
	pw.Counter("ridesim_admitted_total", "Requests stamped into the gateway order.", s.Admitted, nil)
	pw.Counter("ridesim_shed_overflow_total", "Requests shed for queue overflow.", s.ShedOverflow, nil)
	pw.Counter("ridesim_shed_deadline_total", "Requests shed for blown service windows.", s.ShedDeadline, nil)
	pw.Counter("ridesim_shed_adaptive_total", "Requests shed by the adaptive admission controller.", s.ShedAdaptive, nil)
	pw.Counter("ridesim_completed_total", "Trips dropped off.", s.Completed, nil)
	pw.Counter("ridesim_flushes_total", "Batch windows flushed.", s.Flushes, nil)
	pw.Counter("ridesim_conflicts_total", "Batch conflicts repaired.", s.Conflicts, nil)
	pw.Gauge("ridesim_backlog", "Requests currently resident in gateway queues.", float64(s.Backlog), nil)
	pw.Gauge("ridesim_shed_level_permille", "Adaptive shed probability, per mille.", float64(s.ShedLevel), nil)
	if slo != nil {
		snap := slo.Snapshot()
		pw.Counter("ridesim_slo_good_total", "Requests released within the wall-clock SLO.", snap.Good, nil)
		pw.Counter("ridesim_slo_bad_total", "Requests released late or shed against the SLO budget.", snap.Bad, nil)
		pw.Gauge("ridesim_slo_objective", "Configured good-fraction objective.", snap.Objective, nil)
		pw.Gauge("ridesim_slo_burn_rate", "Rolling-window error-budget burn rate (1 = on budget).", snap.BurnRate, nil)
		pw.Gauge("ridesim_slo_budget_consumed", "Fraction of the lifetime error budget consumed.", snap.BudgetConsumed, nil)
	}
}

// printCacheStats reports the aggregate shortest-path cache efficacy
// (summed across all shards); silent when the selected backend has no
// caches.
func printCacheStats(w io.Writer, m *sim.Metrics) {
	if m.DistCacheHits+m.DistCacheMisses == 0 && m.PathCacheHits+m.PathCacheMisses == 0 {
		return
	}
	fmt.Fprintf(w, "dist cache: %.1f%% hit (%d hits, %d misses); path cache: %.1f%% hit (%d hits, %d misses)\n",
		m.DistCacheHitRate()*100, m.DistCacheHits, m.DistCacheMisses,
		m.PathCacheHitRate()*100, m.PathCacheHits, m.PathCacheMisses)
}
