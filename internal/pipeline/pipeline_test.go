package pipeline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/workload"
)

// testWorld is a jittered 20x20 grid city and a seeded hour of requests.
func testWorld(t *testing.T, trips int) (*roadnet.Graph, []sim.Request) {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 20, Cols: 20, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, DropFrac: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(g, workload.Options{Pattern: workload.Surge, Trips: trips, HorizonSeconds: 3600, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reqs := gen.All()
	if err := gen.Err(); err != nil {
		t.Fatal(err)
	}
	return g, reqs
}

// smallSpec is Default shrunk to the test world: a 20-vehicle fleet.
func smallSpec() Spec {
	s := Default()
	s.Servers = 20
	s.Seed = 42
	return s
}

// TestSpecValidation: every bad Spec is rejected by Validate, and by Build
// before it touches anything — here it is not even given a graph — with an
// error that names the offending value or flag.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"unknown algo", func(s *Spec) { s.Algo = "no-such-value" }, `unknown algorithm "no-such-value"`},
		{"unknown oracle", func(s *Spec) { s.Oracle = "no-such-value" }, `unknown oracle "no-such-value"`},
		{"uncached name with +lru", func(s *Spec) { s.Oracle = "alt+lru" }, `unknown oracle "alt+lru"`},
		{"unknown shed policy", func(s *Spec) { s.ShedPolicy = "no-such-value" }, `unknown shed policy "no-such-value"`},
		{"unknown fault plan", func(s *Spec) { s.FaultPlan = "no-such-value" }, `unknown plan "no-such-value"`},
		{"zero wait", func(s *Spec) { s.WaitMinutes = 0 }, "-wait must be positive"},
		{"negative wait", func(s *Spec) { s.WaitMinutes = -1 }, "-wait must be positive"},
		{"zero eps", func(s *Spec) { s.EpsPercent = 0 }, "-eps must be positive"},
		{"negative eps", func(s *Spec) { s.EpsPercent = -20 }, "-eps must be positive"},
		{"no servers", func(s *Spec) { s.Servers = 0 }, "-servers must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Default()
			c.mutate(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, c.wantErr)
			}
			p, berr := Build(nil, s, Hooks{})
			if p != nil || berr == nil || berr.Error() != err.Error() {
				t.Fatalf("Build = (%v, %v), want (nil, %v) before any work", p, berr, err)
			}
		})
	}

	// The other side of the table: everything ridesim accepts validates.
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
	for _, name := range OracleNames() {
		s := Default()
		s.Oracle = name
		if err := s.Validate(); err != nil {
			t.Errorf("oracle %q: %v", name, err)
		}
	}
	for _, name := range append(faults.PlanNames(), "", "none") {
		s := Default()
		s.FaultPlan = name
		if err := s.Validate(); err != nil {
			t.Errorf("fault plan %q: %v", name, err)
		}
	}
	if _, err := Build(nil, Default(), Hooks{}); err == nil {
		t.Error("Build with a valid Spec and no graph must be an error")
	}
}

// TestGatewayFollowsEngine: on a gateway run the admission queues follow
// the engine's fleet partition and deadline shedding uses the Spec's
// waiting-time window, not the gateway's own 600 s default; a direct-feed
// run has neither gateway nor SLO tracker.
func TestGatewayFollowsEngine(t *testing.T) {
	g, _ := testWorld(t, 1)
	spec := smallSpec()
	spec.Workers, spec.Shards = 4, 3
	spec.WaitMinutes = 2
	spec.Producers = 3
	spec.ShedPolicy = ingest.ShedDeadline.String()
	p, err := Build(g, spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Engine.Shards() != 3 || p.Gateway.Queues() != p.Engine.Shards() {
		t.Fatalf("gateway has %d queues over %d shards, want 3 and 3", p.Gateway.Queues(), p.Engine.Shards())
	}
	if p.SLO == nil {
		t.Fatal("gateway run without an SLO tracker")
	}
	// One producer lifts the gateway clock to t=1000; a request 121 s
	// behind it has blown a 120 s window and is refused at admission, one
	// 119 s behind has not.
	clock, late, fresh := p.Gateway.Producers(1)[0], p.Gateway.Producers(1)[0], p.Gateway.Producers(1)[0]
	clock.Skip(1000)
	if late.Submit(sim.Request{ID: 1, Time: 1000 - 121, Pickup: 0, Dropoff: 5}) {
		t.Error("request 121 s late was admitted: the gateway window is not the Spec's 2 minutes")
	}
	if !fresh.Submit(sim.Request{ID: 2, Time: 1000 - 119, Pickup: 0, Dropoff: 5}) {
		t.Error("request 119 s late was shed: the gateway window is not the Spec's 2 minutes")
	}

	spec.Producers = 0
	direct, err := Build(g, spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if direct.Gateway != nil || direct.SLO != nil || direct.Injector != nil {
		t.Fatalf("direct-feed, fault-free pipeline has gateway=%v slo=%v injector=%v, want none",
			direct.Gateway, direct.SLO, direct.Injector)
	}
}

// TestRunMatchesDirectAndGateway: one Spec served direct and through a
// blocking gateway yields the same assignments — Run picks the protocol,
// not the outcome.
func TestRunMatchesDirectAndGateway(t *testing.T) {
	g, reqs := testWorld(t, 80)
	run := func(producers int) *sim.Metrics {
		spec := smallSpec()
		spec.Workers = 2
		spec.Producers = producers
		p, err := Build(g, spec, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		src := ingest.SliceSource(reqs)
		m, ds, err := p.Run(&src)
		if err != nil {
			t.Fatal(err)
		}
		if producers > 0 && ds.Sourced != len(reqs) {
			t.Fatalf("gateway run sourced %d of %d requests", ds.Sourced, len(reqs))
		}
		return m
	}
	direct, gated := run(0), run(4)
	if direct.Requests != len(reqs) || direct.Matched == 0 {
		t.Fatalf("direct run: %d requests, %d matched", direct.Requests, direct.Matched)
	}
	if gated.Matched != direct.Matched || gated.TrialCalls != direct.TrialCalls || gated.Admitted != len(reqs) {
		t.Fatalf("gateway run matched %d (trials %d, admitted %d), direct run %d (trials %d)",
			gated.Matched, gated.TrialCalls, gated.Admitted, direct.Matched, direct.TrialCalls)
	}
}

// TestDegradedOracleNeverPoisonsCache: under a plan whose error bursts
// outlast the retry budget, lookups degrade to +Inf for the matcher — but
// the wrap sits above the cache, so the shared cache, read back after the
// run, still holds exact distances for every trip the engine looked up.
func TestDegradedOracleNeverPoisonsCache(t *testing.T) {
	g, reqs := testWorld(t, 100)
	spec := smallSpec()
	spec.Workers = 2
	spec.FaultPlan = "oracle-degraded"
	p, err := Build(g, spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src := ingest.SliceSource(reqs)
	if _, _, err := p.Run(&src); err != nil {
		t.Fatal(err)
	}
	if p.Injector.Stats().OracleErrors == 0 {
		t.Fatal("the plan injected no oracle errors; the test exercised nothing")
	}
	// d(pickup, dropoff) is looked up for every request, and the cache
	// primes the reverse: 200 pairs the run is known to have cached.
	ref := sp.NewDijkstra(g)
	hits0, _ := p.shared.DistStats()
	for _, r := range reqs {
		for _, pair := range [][2]roadnet.VertexID{{r.Pickup, r.Dropoff}, {r.Dropoff, r.Pickup}} {
			// Bidirectional search sums the same edges in another order,
			// so agreement is to rounding; a poisoned entry would be +Inf.
			got, want := p.shared.Dist(pair[0], pair[1]), ref.Dist(pair[0], pair[1])
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("cached Dist(%d,%d) = %v, Dijkstra says %v", pair[0], pair[1], got, want)
			}
		}
	}
	if hits1, _ := p.shared.DistStats(); hits1-hits0 < uint64(len(reqs)) {
		t.Fatalf("only %d of %d read-backs were cache hits; the sample is not reading the run's entries",
			hits1-hits0, 2*len(reqs))
	}
}

// TestPreprocessingRunsOncePerPipeline: a backend's index is built by the
// one call Build makes to oracleStack.backend, and the per-shard oracles it
// hands out are distinct engines over that one index — so a 4-shard run of
// a preprocessed backend matches exactly what the 1-shard run matches.
func TestPreprocessingRunsOncePerPipeline(t *testing.T) {
	g, reqs := testWorld(t, 60)
	for _, name := range []string{"alt", "arcflags", "hublabels"} {
		t.Run(name, func(t *testing.T) {
			stack, err := parseOracle(name)
			if err != nil {
				t.Fatal(err)
			}
			shardOracle := stack.backend(g)
			index := func(o sp.Oracle) any {
				switch o := o.(type) {
				case interface{ Index() *sp.ALT }:
					return o.Index()
				case interface{ Index() *sp.ArcFlags }:
					return o.Index()
				case *sp.HubLabels:
					return o
				}
				t.Fatalf("%T: no index known for this oracle", o)
				return nil
			}
			first := shardOracle()
			for shard := 1; shard < 4; shard++ {
				o := shardOracle()
				if index(o) != index(first) {
					t.Fatalf("shard %d searches over its own index: preprocessing ran again", shard)
				}
				if _, shared := o.(sp.SharedOracle); !shared && o == first {
					t.Fatalf("shard %d was handed shard 0's per-goroutine engine", shard)
				}
			}

			run := func(shards int) *sim.Metrics {
				spec := smallSpec()
				spec.Oracle = name
				spec.Workers, spec.Shards = shards, shards
				p, err := Build(g, spec, Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				src := ingest.SliceSource(reqs)
				m, _, err := p.Run(&src)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			one, four := run(1), run(4)
			if one.Matched == 0 || four.Matched != one.Matched || four.TrialCalls != one.TrialCalls ||
				four.Rejected != one.Rejected {
				t.Fatalf("4 shards matched %d (trials %d, rejected %d), 1 shard %d (trials %d, rejected %d)",
					four.Matched, four.TrialCalls, four.Rejected, one.Matched, one.TrialCalls, one.Rejected)
			}
		})
	}
}
