// Command ridesim runs one ridesharing simulation and prints its metrics.
//
//	ridesim -scale 0.02 -servers 200 -algo ktree-slack -capacity 6
//	ridesim -graph city.bin -trips trips.csv -algo ktree-hotspot
//	ridesim -scale 0.02 -servers 2000 -workers 8 -batch 10
//	ridesim -scale 0.02 -servers 2000 -workers 4 -producers 8 -arrival surge
//
// Without -graph/-trips it generates a synthetic city and workload at the
// requested scale. Every run goes through the dispatch engine
// (internal/dispatch): -workers sizes its trial worker pool (one worker,
// the default, runs the shards inline with no pool), -shards partitions
// the fleet, and -batch matches requests in fixed windows instead of on
// arrival; worker and shard counts change throughput, never assignments.
// Caching backends ("+lru") run all shards against one fleet-wide shared
// distance table (cache.Shared), bounded at the paper's ten million entries
// and allocated as it fills; the end-of-run summary reports its hit rate.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// options carries every flag: the pipeline.Spec the stack-shaping flags
// are a view of, plus the world, workload and output flags that are
// ridesim's own.
type options struct {
	spec pipeline.Spec

	scale       float64
	graphPath   string
	tripsPath   string
	arrival     string
	artOut      bool
	jsonOut     bool
	obsAddr     string
	obsInterval time.Duration
	traceOut    string
	traceCap    int
}

// defineFlags registers every ridesim flag on fs; the returned options are
// filled in when fs is parsed.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{spec: pipeline.Default()}
	s := &o.spec
	fs.Float64Var(&o.scale, "scale", 0.02, "synthetic world scale when no -graph is given")
	fs.StringVar(&o.graphPath, "graph", "", "road network file (RNG1 format, see genmap)")
	fs.StringVar(&o.tripsPath, "trips", "", "trip CSV (see gentrips); requires -graph")
	fs.IntVar(&s.Servers, "servers", s.Servers, "fleet size")
	fs.BoolVar(&s.AutoTune, "auto-tune", s.AutoTune, "derive shard count and grid cell size from fleet size and graph extent")
	fs.IntVar(&s.Capacity, "capacity", s.Capacity, "vehicle capacity (0 = unlimited)")
	fs.Float64Var(&s.WaitMinutes, "wait", s.WaitMinutes, "waiting-time constraint in minutes")
	fs.Float64Var(&s.EpsPercent, "eps", s.EpsPercent, "service constraint in percent extra ride")
	fs.StringVar(&s.Algo, "algo", s.Algo, "kinetic-tree variant: ktree, ktree-slack, ktree-hotspot")
	fs.Float64Var(&s.Theta, "theta", s.Theta, "hotspot radius in meters (ktree-hotspot)")
	fs.BoolVar(&s.Lazy, "lazy", s.Lazy, "use lazy tree invalidation (paper §IV-A)")
	fs.StringVar(&s.Oracle, "oracle", s.Oracle, "shortest-path backend: "+strings.Join(pipeline.OracleNames(), ", "))
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.BoolVar(&o.artOut, "art", false, "print the ART-by-request-count breakdown")
	fs.BoolVar(&o.jsonOut, "json", false, "emit metrics as JSON instead of text")
	fs.IntVar(&s.Workers, "workers", s.Workers, "trial worker-pool size (default 1: the shards run inline, no pool)")
	fs.IntVar(&s.Shards, "shards", s.Shards, "fleet partitions (default: one per worker)")
	fs.Float64Var(&s.Batch, "batch", s.Batch, "batch window in seconds; 0 matches each request on arrival")
	fs.IntVar(&s.Producers, "producers", s.Producers, "concurrent request producers; >0 routes the stream through the ingress gateway")
	fs.IntVar(&s.QueueDepth, "queue-depth", s.QueueDepth, "per-shard ingress queue capacity")
	fs.StringVar(&s.ShedPolicy, "shed-policy", s.ShedPolicy, "ingress backpressure policy: block, shed-oldest, deadline, adaptive")
	fs.DurationVar(&s.SLO, "slo", s.SLO, "wall-clock ingress residence SLO defended by the adaptive admission controller")
	fs.Float64Var(&s.SLOObjective, "slo-objective", s.SLOObjective, "fraction of requests that must meet -slo; drives the error-budget burn account (gateway runs)")
	fs.StringVar(&s.FaultPlan, "fault-plan", s.FaultPlan, "deterministic fault-injection plan: none, "+strings.Join(faults.PlanNames(), ", "))
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

// loadWorld reads -graph (and -trips, or draws a default 2,000-request
// Surge day over it), or builds the synthetic city and workload at -scale.
func loadWorld(o options) (*roadnet.Graph, []sim.Request, error) {
	if o.graphPath == "" {
		world, err := exp.BuildWorld(exp.WorldOptions{Scale: o.scale, Seed: o.spec.Seed})
		if err != nil {
			return nil, nil, err
		}
		return world.Graph, world.Requests, nil
	}
	f, err := os.Open(o.graphPath)
	if err != nil {
		return nil, nil, err
	}
	g, err := roadnet.ReadGraph(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	if o.tripsPath == "" {
		gen, err := workload.New(g, workload.Options{Pattern: workload.Surge, Trips: 2000, Seed: o.spec.Seed})
		if err != nil {
			return nil, nil, err
		}
		reqs := gen.All()
		return g, reqs, gen.Err()
	}
	tf, err := os.Open(o.tripsPath)
	if err != nil {
		return nil, nil, err
	}
	reqs, err := workload.ReadCSV(tf, g)
	tf.Close()
	return g, reqs, err
}

// run executes one simulation and writes its report to stdout.
func run(o options, stdout io.Writer) error {
	// Every flag value is checked before any work, so a bad one fails fast
	// with nothing on stdout and no listener opened.
	if err := o.spec.Validate(); err != nil {
		return err
	}
	var pattern workload.Pattern
	switch {
	case o.tripsPath != "" && o.graphPath == "":
		return fmt.Errorf("-trips requires -graph")
	case o.arrival != "" && o.tripsPath != "":
		return fmt.Errorf("-arrival generates its own stream and would discard -trips %s; give one or the other", o.tripsPath)
	case o.arrival != "":
		var err error
		if pattern, err = workload.ParsePattern(o.arrival); err != nil {
			return err
		}
	}

	g, reqs, err := loadWorld(o)
	if err != nil {
		return err
	}

	// Observability: -trace-out turns on lifecycle tracing, and either of
	// -obs-addr/-obs-interval turns on the live atomic counters. Both stay
	// nil (the no-op state) otherwise.
	var hooks pipeline.Hooks
	if o.traceOut != "" {
		hooks.Tracer = obs.NewTracer(o.traceCap)
	}
	if o.obsAddr != "" || o.obsInterval > 0 {
		hooks.Live = &obs.Live{}
	}

	// The request stream: the replayed trace, or with -arrival the
	// streaming open-loop generator over the same graph (sized like the
	// trace it replaces), pulled live by the gateway when -producers is set.
	slice := ingest.SliceSource(reqs)
	var src ingest.Source = &slice
	var gen *workload.Generator
	if o.arrival != "" {
		gen, err = workload.New(g, workload.Options{Pattern: pattern, Trips: len(reqs), Seed: o.spec.Seed, Trace: hooks.Tracer})
		if err != nil {
			return err
		}
		src = gen
	}

	// Allocation accounting for the tuning summary: deltas cover pipeline
	// construction plus the run.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p, err := pipeline.Build(g, o.spec, hooks)
	if err != nil {
		return err
	}
	defer p.Close()

	if o.obsAddr != "" {
		srv, err := obs.Serve(o.obsAddr, hooks.Live, p.SLO)
		if err != nil {
			return err
		}
		defer srv.Close()
		if !o.jsonOut {
			fmt.Fprintf(stdout, "observability: /metrics (JSON + Prometheus) and /debug/pprof/ on http://%s\n", srv.Addr())
		}
	}
	if o.obsInterval > 0 {
		rep := obs.NewReporter(os.Stderr, o.obsInterval, func() any { return hooks.Live.Snapshot(p.SLO) })
		defer rep.Stop()
	}
	if !o.jsonOut {
		stream := fmt.Sprintf("%d requests", len(reqs))
		if gen != nil {
			stream = fmt.Sprintf("streaming %s arrivals", o.arrival)
		}
		fmt.Fprintf(stdout, "network: %d vertices, %d edges; %s; fleet %d x capacity %d; algo %s\n",
			g.N(), g.M(), stream, o.spec.Servers, o.spec.Capacity, o.spec.Algo)
		fmt.Fprintf(stdout, "engine: %d workers, %d shards, batch window %gs\n",
			p.Engine.Workers(), p.Engine.Shards(), o.spec.Batch)
	}

	// A run that ends in an error (an invariant violation, a wedged drain)
	// has metrics all the same; the error is held until they are out.
	start := time.Now()
	m, ds, runErr := p.Run(src)
	wall := time.Since(start)
	// A generator ends its stream silently from the driver's point of
	// view; surface an abnormal (sampling-failure) ending rather than
	// reporting metrics over a quietly truncated workload.
	if gen != nil {
		if err := gen.Err(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	return report(stdout, o, p, hooks.Tracer, m, ds, wall, &ms0, &ms1, runErr)
}

// report writes what a finished run leaves behind — the drained trace,
// then the JSON snapshot or the text report — and returns runErr, the
// run's own verdict, after them: a failed run still shows its numbers and
// still fails.
func report(stdout io.Writer, o options, p *pipeline.Pipeline, tracer *obs.Tracer, m *sim.Metrics, ds ingest.DriveStats,
	wall time.Duration, ms0, ms1 *runtime.MemStats, runErr error) error {
	// Drain the lifecycle trace once the pipeline is quiescent: events from
	// every ring, globally ordered, one JSON object per line.
	if tracer != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return errors.Join(runErr, err)
		}
		written, dropped, derr := tracer.Drain(f)
		if cerr := f.Close(); derr == nil {
			derr = cerr
		}
		if derr != nil {
			return errors.Join(runErr, fmt.Errorf("trace drain: %w", derr))
		}
		if !o.jsonOut {
			fmt.Fprintf(stdout, "trace: %d records (events + spans) -> %s (%d dropped by ring caps)\n", written, o.traceOut, dropped)
		}
	}

	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m.Snapshot(p.SLO)); err != nil {
			return errors.Join(runErr, err)
		}
		return runErr
	}
	fmt.Fprintf(stdout, "\n%s\nwall time: %v\n", m, wall.Round(time.Millisecond))
	printSummary(stdout, o, p, m, ds, ms0, ms1)
	return runErr
}
