package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// citySeed fixes the road network of every workload: -seed varies demand and
// fleet placement, never the map, so layer probes and runs of different seeds
// share one city per workload.
const citySeed = 17

// Stack paths: which assembly produced the oracle stack (printed as stack=).
const (
	stackEngineDefault = "engine-default"
	stackRidesimMirror = "ridesim-mirror"
)

// stack is one freshly assembled production pipeline below the gateway:
// graph, oracle stack and sharded dispatch engine with its fleet placed.
type stack struct {
	graph  *roadnet.Graph
	engine *dispatch.Engine
	oracle sp.Oracle // the assembled stack, safe to query directly; nil on the engine-default path
	path   string    // stackEngineDefault or stackRidesimMirror
	timed  *oracleTimer

	// Wall time of each build step; together with the warm-up they make
	// setup_s, and each is its own per-layer metric.
	roadnetBuild, spBuild, dispatchBuild time.Duration
}

// stackOpts are the observability hooks of the traced pass; the zero value is
// the untraced production assembly.
type stackOpts struct {
	tracer      *obs.Tracer
	live        *obs.Live
	timeOracles bool // wrap every shard oracle in a timing facade
}

// buildStack assembles the pipeline for one phase of one workload. It first
// asks the engine for its own default oracle stack (cfg.Oracle == nil, no
// factory); while the engine has none it mirrors cmd/ridesim's default: one
// fleet-wide cache.Shared over bidirectional Dijkstra, tree-slack matching,
// auto-tuned shards and cell size. A later change that makes the zero-value
// Oracle select the production stack therefore shows up here unedited.
func buildStack(w workloadSpec, seed int64, o stackOpts) (*stack, error) {
	st := &stack{}
	t0 := time.Now()
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: w.Scale, Seed: citySeed})
	if err != nil {
		return nil, fmt.Errorf("build city: %w", err)
	}
	st.graph = g
	st.roadnetBuild = time.Since(t0)

	cfg := sim.Config{
		Graph:       g,
		Servers:     w.Fleet,
		Capacity:    w.Capacity,
		WaitSeconds: w.WaitSeconds,
		Epsilon:     w.Epsilon,
		Algorithm:   sim.AlgoTreeSlack,
		AutoTune:    true,
		Seed:        fleetSeed(seed),
		Workers:     w.Workers,
		BatchWindow: w.BatchWindow,
		Trace:       o.tracer,
		Live:        o.live,
	}

	t1 := time.Now()
	if eng, err := dispatch.New(cfg, nil); err == nil {
		// The oracle was built inside New, so its cost lands in
		// dispatch.build_s and the shard oracles cannot be wrapped.
		st.engine, st.path = eng, stackEngineDefault
		st.dispatchBuild = time.Since(t1)
		return st, nil
	}
	shared := cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())
	cfg.Oracle, st.oracle = shared, shared
	st.spBuild = time.Since(t1)

	t2 := time.Now()
	var factory dispatch.OracleFactory
	if o.timeOracles {
		st.timed = &oracleTimer{}
		factory = func() sp.Oracle { return st.timed.wrap(shared.NewWorkerOracle()) }
	}
	eng, err := dispatch.New(cfg, factory)
	if err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	st.engine, st.path = eng, stackRidesimMirror
	st.dispatchBuild = time.Since(t2)
	return st, nil
}

// fleetSeed derives the fleet-placement seed from -seed, decorrelated from
// the request stream that uses -seed itself.
func fleetSeed(seed int64) int64 { return seed*7919 + 13 }

// sink returns the engine entry point a released request is handed to:
// Submit in immediate mode, Enqueue in batch mode.
func (st *stack) sink(w workloadSpec) func(sim.Request) {
	if w.BatchWindow > 0 {
		return st.engine.Enqueue
	}
	return func(r sim.Request) { st.engine.Submit(r) }
}
