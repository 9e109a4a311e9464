// Package pipeline is the one place the serving stack is put together:
// oracle stack → sharded dispatch engine → (optionally) ingress gateway,
// with the fault-injection seams threaded through. Every binary, example,
// experiment and root benchmark describes its run as a Spec and calls
// Build; nothing else constructs an engine or a gateway.
//
// Build is the only code that knows the wiring rules:
//
//  1. Spec.Oracle names a shortest-path backend (OracleNames). Whatever
//     preprocessing it has runs once per pipeline; every shard then gets
//     its own search state over that one index (or, for hublabels, the one
//     concurrency-safe index itself).
//  2. A "+lru" name puts one fleet-wide cache.Shared in front — a distance
//     table bounded at the paper's ten million entries, with nothing to
//     size — each shard holding its own facade, so a distance learned by
//     one shard is a hit for all the others.
//  3. Under a fault plan the injector gets the tracer before any hook is
//     handed out (so injected latency shows up as overlay spans), and the
//     flaky/retry wrap sits above the cache: a degraded answer is returned
//     to the matcher but never stored.
//  4. The gateway has one admission queue per engine shard and sheds
//     against the same waiting-time window the engine matches with.
//  5. The SLO error-budget tracker exists only on gateway runs, where the
//     wall-clock SLO is defended.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// Spec is one run's configuration as plain data: one field per ridesim
// flag that shapes the stack (the flag is named beside each field), and
// nothing else. Start from Default and override.
type Spec struct {
	Servers     int     // -servers: fleet size
	Capacity    int     // -capacity: seats per vehicle, 0 = unlimited
	WaitMinutes float64 // -wait: waiting-time constraint
	EpsPercent  float64 // -eps: service constraint, percent extra ride
	Seed        int64   // -seed: fleet placement (and retry jitter under a fault plan)

	Algo  string  // -algo: ktree, ktree-slack, ktree-hotspot
	Theta float64 // -theta: hotspot radius in meters (ktree-hotspot)
	Lazy  bool    // -lazy: lazy tree invalidation (paper §IV-A)

	Oracle string // -oracle: an OracleNames entry

	Workers  int     // -workers: trial worker pool, 0 = 1 (shards run inline)
	Shards   int     // -shards: fleet partitions, 0 = one per worker
	Batch    float64 // -batch: batch window in seconds, 0 = match on arrival
	AutoTune bool    // -auto-tune: derive shard count and grid cell size

	Producers    int           // -producers: >0 puts the ingress gateway in front
	QueueDepth   int           // -queue-depth: per-shard admission queue capacity
	ShedPolicy   string        // -shed-policy: block, shed-oldest, deadline, adaptive
	SLO          time.Duration // -slo: wall-clock gateway-residence target
	SLOObjective float64       // -slo-objective: fraction of requests that must meet SLO

	FaultPlan string // -fault-plan: "" or none, or a faults.PlanNames entry
}

// Default is ridesim's flag defaults: the paper's operating point (10 min /
// 20 %, capacity 4, slack-time kinetic tree) over bidirectional Dijkstra
// behind the shared distance table, one worker, no gateway, no faults.
func Default() Spec {
	return Spec{
		Servers: 200, Capacity: 4, WaitMinutes: 10, EpsPercent: 20, Seed: 1,
		Algo: sim.AlgoTreeSlack.String(), Theta: 300, Oracle: "bidij+lru",
		QueueDepth: 256, ShedPolicy: ingest.Block.String(), SLO: 500 * time.Millisecond, SLOObjective: 0.99,
	}
}

// resolved is a Spec's enumerated names turned into what they select.
type resolved struct {
	algo   sim.Algorithm
	oracle oracleStack
	policy ingest.Policy
	plan   faults.Plan
}

// Validate reports the first thing wrong with the Spec, naming the flag
// that sets it. Build runs the same check first, so a caller with slow
// set-up of its own (loading a graph, opening a listener) can fail before
// paying for it.
func (s Spec) Validate() error {
	_, err := s.resolve()
	return err
}

func (s Spec) resolve() (r resolved, err error) {
	// sim.Config reads a zero constraint as "use the default", so a zero
	// here would silently run at 10 min / 20 %.
	switch {
	case s.Servers <= 0:
		return r, fmt.Errorf("pipeline: -servers must be positive, got %d", s.Servers)
	case !(s.WaitMinutes > 0):
		return r, fmt.Errorf("pipeline: -wait must be positive, got %v", s.WaitMinutes)
	case !(s.EpsPercent > 0):
		return r, fmt.Errorf("pipeline: -eps must be positive, got %v", s.EpsPercent)
	case s.SLO <= 0:
		// ingest.Config reads a non-positive SLO as its 500 ms default.
		return r, fmt.Errorf("pipeline: -slo must be positive, got %v", s.SLO)
	case obs.NewSLOTracker(s.SLOObjective, 0).Objective() != s.SLOObjective:
		// The tracker clamps into its supported range (and keeps NaN).
		return r, fmt.Errorf("pipeline: -slo-objective must be within [0.5, 0.9999], got %v", s.SLOObjective)
	}
	if r.algo, err = parseAlgo(s.Algo); err != nil {
		return r, err
	}
	if r.oracle, err = parseOracle(s.Oracle); err != nil {
		return r, err
	}
	if r.policy, err = ingest.ParsePolicy(s.ShedPolicy); err != nil {
		return r, err
	}
	r.plan, err = faults.ParsePlan(s.FaultPlan)
	return r, err
}

func parseAlgo(name string) (sim.Algorithm, error) {
	for a := sim.AlgoTreeBasic; a <= sim.AlgoTreeHotspot; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown algorithm %q", name)
}

// oracleStack is what an oracle name selects.
type oracleStack struct {
	name string
	// backend is called once per pipeline. It does the backend's
	// preprocessing, if any, and returns the source of per-shard engines:
	// each call yields an oracle for the exclusive use of one shard.
	backend func(*roadnet.Graph) func() sp.Oracle
	cached  bool // "+lru": cache.Shared in front
}

// perShard is a backend with no preprocessing: every shard gets a fresh
// engine.
func perShard[E sp.Oracle](engine func(*roadnet.Graph) E) func(*roadnet.Graph) func() sp.Oracle {
	return func(g *roadnet.Graph) func() sp.Oracle {
		return func() sp.Oracle { return engine(g) }
	}
}

// oracleStacks is the one list of oracle names; OracleNames, parseOracle
// and through them ridesim's -oracle help and exp.OracleAblation read it.
var oracleStacks = []oracleStack{
	{"dijkstra", perShard(sp.NewDijkstra), false},
	{"bidij", perShard(sp.NewBidirectional), false},
	{"astar", perShard(sp.NewAStar), false},
	{"alt", func(g *roadnet.Graph) func() sp.Oracle { return sp.NewALT(g, 8).NewWorkerOracle }, false},
	{"arcflags", func(g *roadnet.Graph) func() sp.Oracle { return sp.NewArcFlags(g, 6).NewWorkerOracle }, false},
	{"hublabels", func(g *roadnet.Graph) func() sp.Oracle {
		hl := sp.NewHubLabels(g) // an sp.SharedOracle: every shard queries the one index
		return func() sp.Oracle { return hl }
	}, false},
	{"bidij+lru", perShard(sp.NewBidirectional), true},
}

// OracleNames lists the oracle stacks a Spec can name, in the order help
// text and the ablation table show them.
func OracleNames() []string {
	names := make([]string, len(oracleStacks))
	for i, o := range oracleStacks {
		names[i] = o.name
	}
	return names
}

func parseOracle(name string) (oracleStack, error) {
	for _, o := range oracleStacks {
		if o.name == name {
			return o, nil
		}
	}
	return oracleStack{}, fmt.Errorf("pipeline: unknown oracle %q", name)
}

// Hooks carries what a Spec cannot, because no ridesim flag sets it: the
// live observability objects, the experiment harness's tree-size cap, and
// its instance capture. The zero value is an uninstrumented run at the
// engine's defaults; instrumentation and capture record but never branch,
// so they change no assignment.
type Hooks struct {
	Tracer *obs.Tracer // request lifecycle events and spans
	Live   *obs.Live   // atomically readable progress counters
	// MaxTreeNodes caps a candidate kinetic tree (sim.Config's default when
	// zero); internal/exp tightens it so the unlimited-capacity stress
	// sweep finishes.
	MaxTreeNodes int
	// Capture receives every trial's rescheduling instance, on the trialing
	// goroutine (sim.Config.Capture).
	Capture func(*core.Instance)
}

// Pipeline is one assembled stack. Gateway and SLO are nil on a direct-feed
// run (Spec.Producers == 0), Injector when no fault plan is armed.
type Pipeline struct {
	Engine   *dispatch.Engine
	Gateway  *ingest.Gateway
	Injector *faults.Injector
	SLO      *obs.SLOTracker

	producers int
	shared    *cache.Shared // the "+lru" cache, kept so tests can read it back
}

// Build validates spec and assembles the stack over g.
func Build(g *roadnet.Graph, spec Spec, hooks Hooks) (*Pipeline, error) {
	r, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, errors.New("pipeline: a road network is required")
	}
	p := &Pipeline{producers: spec.Producers}
	if r.plan.Enabled() {
		p.Injector = faults.New(r.plan)
		p.Injector.SetTrace(hooks.Tracer)
	}

	shardOracle := r.oracle.backend(g)
	if r.oracle.cached {
		p.shared = cache.NewSharedDefault(shardOracle, g.N())
		shardOracle = p.shared.NewWorkerOracle
	}
	factory := shardOracle
	if p.Injector != nil {
		retry := sp.RetryOptions{Seed: uint64(spec.Seed)}
		factory = func() sp.Oracle { return faults.WrapOracle(shardOracle(), p.Injector.Oracle(), retry) }
	}

	wait := spec.WaitMinutes * 60
	p.Engine, err = dispatch.New(sim.Config{
		Graph:            g,
		Servers:          spec.Servers,
		Capacity:         spec.Capacity,
		WaitSeconds:      wait,
		Epsilon:          spec.EpsPercent / 100,
		Algorithm:        r.algo,
		HotspotTheta:     spec.Theta,
		LazyInvalidation: spec.Lazy,
		MaxTreeNodes:     hooks.MaxTreeNodes,
		AutoTune:         spec.AutoTune,
		Seed:             spec.Seed,
		Workers:          spec.Workers,
		Shards:           spec.Shards,
		BatchWindow:      spec.Batch,
		Trace:            hooks.Tracer,
		Live:             hooks.Live,
		Faults:           p.Injector,
		Capture:          hooks.Capture,
	}, factory)
	if err != nil {
		return nil, err
	}
	if spec.Producers > 0 {
		p.SLO = obs.NewSLOTracker(spec.SLOObjective, 0)
		p.Gateway = ingest.New(ingest.Config{
			Queues:      p.Engine.Shards(),
			Depth:       spec.QueueDepth,
			Policy:      r.policy,
			WaitSeconds: wait,
			WallSLO:     spec.SLO,
			SLO:         p.SLO,
			Trace:       hooks.Tracer,
			Live:        hooks.Live,
		})
	}
	return p, nil
}

// Run serves src to completion — fed straight to the engine on a
// direct-feed pipeline, through the gateway from Spec.Producers goroutines
// (under the fault plan's producer hooks) otherwise — lets the fleet finish
// its committed schedules, and checks the engine's invariants. The metrics
// are returned even alongside an error, covering whatever did run. A
// gateway is single-use, and so is Run on a gateway pipeline.
func (p *Pipeline) Run(src ingest.Source) (*sim.Metrics, ingest.DriveStats, error) {
	var m *sim.Metrics
	var ds ingest.DriveStats
	var err error
	if p.Gateway != nil {
		m, ds, err = ingest.Run(p.Gateway, p.Engine, src, p.producers, p.Injector)
	} else {
		var reqs []sim.Request
		for req, ok := src.Next(); ok; req, ok = src.Next() {
			reqs = append(reqs, req)
		}
		m, err = p.Engine.Run(reqs)
	}
	if err == nil {
		if err = p.Engine.CheckInvariants(); err != nil {
			err = fmt.Errorf("pipeline: invariant violated: %w", err)
		}
	}
	return m, ds, err
}

// Close stops the engine's worker pool.
func (p *Pipeline) Close() { p.Engine.Close() }
