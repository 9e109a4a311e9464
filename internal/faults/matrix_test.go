package faults_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// testWorld mirrors the ingest/dispatch equivalence fixture: a jittered
// 20x20 grid city and a deterministic (Time, ID)-sorted request stream.
func testWorld(t testing.TB, trips int) (*roadnet.Graph, dispatch.OracleFactory, []sim.Request) {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 20, Cols: 20, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, DropFrac: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	factory := func() sp.Oracle {
		return cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N()).NewWorker()
	}
	reqs := make([]sim.Request, 0, trips)
	nv := int32(g.N())
	state := int64(12345)
	next := func(mod int32) int32 {
		state = state*6364136223846793005 + 1442695040888963407
		v := int32((state >> 33) % int64(mod))
		if v < 0 {
			v += mod
		}
		return v
	}
	for len(reqs) < trips {
		s := roadnet.VertexID(next(nv))
		e := roadnet.VertexID(next(nv))
		if s == e || g.EuclideanDist(s, e) < 800 {
			continue
		}
		reqs = append(reqs, sim.Request{
			ID:      int64(len(reqs)),
			Time:    float64(len(reqs)/2) * 10,
			Pickup:  s,
			Dropoff: e,
		})
	}
	return g, factory, reqs
}

// runPipeline drives the full ingress -> dispatch -> oracle pipeline
// under one injector and policy, returns the merged metrics, drive
// stats, and the drained trace.
func runPipeline(t *testing.T, policy ingest.Policy, inj *faults.Injector) (*sim.Metrics, ingest.DriveStats, *bytes.Buffer) {
	t.Helper()
	g, factory, reqs := testWorld(t, 100)
	tracer := obs.NewTracer(1 << 14)
	// Retry sits above the per-shard cache facade so an injected failure
	// can never poison a cache entry; tight backoffs keep the degraded
	// plans fast.
	opts := sp.RetryOptions{Seed: 99, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond}
	wrapped := func() sp.Oracle { return faults.WrapOracle(factory(), inj.Oracle(), opts) }

	cfg := sim.Config{
		Graph:     g,
		Oracle:    wrapped(),
		Servers:   20,
		Capacity:  4,
		Algorithm: sim.AlgoTreeSlack,
		Seed:      42,
		Workers:   4,
		Shards:    4,
		Trace:     tracer,
		Faults:    inj,
	}
	e, err := dispatch.New(cfg, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	gw := ingest.New(ingest.Config{
		Queues: e.Shards(),
		Depth:  32,
		Policy: policy,
		Trace:  tracer,
	})
	src := make(ingest.SliceSource, len(reqs))
	copy(src, reqs)
	m, ds, err := ingest.Run(gw, e, &src, 4, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("engine invariants: %v", err)
	}
	var buf bytes.Buffer
	if _, dropped, err := tracer.Drain(&buf); err != nil || dropped != 0 {
		t.Fatalf("trace drain: dropped=%d err=%v", dropped, err)
	}
	return m, ds, &buf
}

// assignments reads back every dispatched request's vehicle (or -1).
func checkTotals(t *testing.T, m *sim.Metrics, ds ingest.DriveStats, trace *bytes.Buffer) faults.Report {
	t.Helper()
	rep, err := faults.Check(trace, faults.Totals{
		Sourced:      ds.Sourced,
		Dropped:      ds.Dropped + ds.Discarded,
		Released:     m.Admitted,
		ShedOverflow: m.ShedOverflow,
		ShedDeadline: m.ShedDeadline,
		ShedAdaptive: m.ShedAdaptive,
		Matched:      m.Matched,
		Rejected:     m.Rejected,
		Drained:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFaultMatrix runs every shipped plan against the full pipeline
// under both a lossless and the adaptive policy, checks the pipeline's
// conservation/monotonicity/no-loss invariants against the drained
// trace, and confirms each plan actually injected its faults.
func TestFaultMatrix(t *testing.T) {
	fired := map[string]func(faults.Stats) bool{
		"producer-crash":  func(s faults.Stats) bool { return s.Crashes > 0 && s.Dropped > 0 },
		"clock-skew":      func(s faults.Stats) bool { return s.Skewed > 0 },
		"burst-storm":     func(s faults.Stats) bool { return s.Bursted > 0 },
		"worker-stall":    func(s faults.Stats) bool { return s.Stalls > 0 },
		"slow-oracle":     func(s faults.Stats) bool { return s.OracleSpikes > 0 },
		"flaky-oracle":    func(s faults.Stats) bool { return s.OracleErrors > 0 },
		"oracle-degraded": func(s faults.Stats) bool { return s.OracleErrors > 0 },
		"chaos":           func(s faults.Stats) bool { return !s.Zero() },
	}
	for _, name := range faults.PlanNames() {
		plan, err := faults.ParsePlan(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []ingest.Policy{ingest.Block, ingest.Adaptive} {
			t.Run(fmt.Sprintf("%s/%s", name, policy), func(t *testing.T) {
				inj := faults.New(plan)
				m, ds, trace := runPipeline(t, policy, inj)
				rep := checkTotals(t, m, ds, trace)
				if rep.Released == 0 {
					t.Fatal("pipeline released nothing under the fault plan")
				}
				check, ok := fired[name]
				if !ok {
					t.Fatalf("no firing expectation for plan %q", name)
				}
				if s := inj.Stats(); !check(s) {
					t.Fatalf("plan %s never fired: %v", name, s)
				}
			})
		}
	}
}

// TestFaultLatencyPlansBitIdentical: latency-only fault plans (stalls,
// spikes) and transient oracle errors inside the retry budget must not
// change a single assignment relative to the fault-free run.
func TestFaultLatencyPlansBitIdentical(t *testing.T) {
	baseline := map[int64]int{}
	{
		g, factory, reqs := testWorld(t, 100)
		cfg := sim.Config{
			Graph: g, Oracle: factory(), Servers: 20, Capacity: 4,
			Algorithm: sim.AlgoTreeSlack, Seed: 42, Workers: 4, Shards: 4,
		}
		e, err := dispatch.New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			e.Enqueue(r)
		}
		e.Flush()
		for _, r := range reqs {
			veh, ok := e.Assignment(r.ID)
			if !ok {
				veh = -1
			}
			baseline[r.ID] = veh
		}
		e.Close()
	}

	for _, name := range []string{"worker-stall", "slow-oracle", "flaky-oracle"} {
		t.Run(name, func(t *testing.T) {
			plan, err := faults.ParsePlan(name)
			if err != nil {
				t.Fatal(err)
			}
			inj := faults.New(plan)
			g, factory, reqs := testWorld(t, 100)
			opts := sp.RetryOptions{Seed: 99, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond}
			wrapped := func() sp.Oracle { return faults.WrapOracle(factory(), inj.Oracle(), opts) }
			cfg := sim.Config{
				Graph: g, Oracle: wrapped(), Servers: 20, Capacity: 4,
				Algorithm: sim.AlgoTreeSlack, Seed: 42, Workers: 4, Shards: 4,
				Faults: inj,
			}
			e, err := dispatch.New(cfg, wrapped)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			gw := ingest.New(ingest.Config{Queues: e.Shards(), Depth: 32})
			src := make(ingest.SliceSource, len(reqs))
			copy(src, reqs)
			if _, _, err := ingest.Run(gw, e, &src, 4, inj); err != nil {
				t.Fatal(err)
			}
			for _, r := range reqs {
				veh, ok := e.Assignment(r.ID)
				if !ok {
					veh = -1
				}
				if veh != baseline[r.ID] {
					t.Fatalf("plan %s changed assignment of request %d: %d != %d",
						name, r.ID, veh, baseline[r.ID])
				}
			}
			if s := inj.Stats(); s.Zero() {
				t.Fatalf("plan %s never fired", name)
			}
		})
	}
}

// TestFaultDisabledEquivalence: wiring every hook with a nil injector —
// including the Retry/FlakyOracle facade — is bit-identical to the
// un-hooked pipeline, so the instrumented build can ship as the only
// build (the PR 5 traced-equivalence discipline, extended to faults).
func TestFaultDisabledEquivalence(t *testing.T) {
	run := func(hooked bool) map[int64]int {
		g, factory, reqs := testWorld(t, 100)
		oracleFactory := factory
		var inj *faults.Injector // stays nil: the disabled configuration
		if hooked {
			oracleFactory = func() sp.Oracle {
				return faults.WrapOracle(factory(), inj.Oracle(), sp.RetryOptions{})
			}
		}
		cfg := sim.Config{
			Graph: g, Oracle: oracleFactory(), Servers: 20, Capacity: 4,
			Algorithm: sim.AlgoTreeSlack, Seed: 42, Workers: 4, Shards: 4,
			Faults: inj,
		}
		e, err := dispatch.New(cfg, oracleFactory)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		gw := ingest.New(ingest.Config{Queues: e.Shards(), Depth: 32})
		src := make(ingest.SliceSource, len(reqs))
		copy(src, reqs)
		if _, _, err := ingest.Run(gw, e, &src, 4, inj); err != nil {
			t.Fatal(err)
		}
		out := make(map[int64]int, len(reqs))
		for _, r := range reqs {
			veh, ok := e.Assignment(r.ID)
			if !ok {
				veh = -1
			}
			out[r.ID] = veh
		}
		return out
	}
	bare := run(false)
	wired := run(true)
	for id, veh := range bare {
		if wired[id] != veh {
			t.Fatalf("request %d: hooked pipeline assigned %d, bare assigned %d", id, wired[id], veh)
		}
	}
}
