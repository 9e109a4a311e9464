package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
)

// testWorld builds a small city, an oracle factory, and a deterministic
// time-sorted request stream (one request every 5 simulated seconds) —
// the same fixture shape the dispatch equivalence tests use.
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
	state := int64(12345) // LCG, stable across Go versions
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
		// Pairs share a timestamp so the equivalence runs exercise the
		// gateway's tie rule (equal times released in ID order); the slice
		// itself is (Time, ID)-sorted, the direct-feed reference order.
		reqs = append(reqs, sim.Request{
			ID:      int64(len(reqs)),
			Time:    float64(len(reqs)/2) * 10,
			Pickup:  s,
			Dropoff: e,
		})
	}
	return g, factory, reqs
}

func baseConfig(g *roadnet.Graph, factory dispatch.OracleFactory) sim.Config {
	return sim.Config{
		Graph:     g,
		Oracle:    factory(),
		Servers:   25,
		Capacity:  4,
		Algorithm: sim.AlgoTreeSlack,
		Seed:      42,
	}
}

// feed splits reqs round-robin over `producers` concurrent Submit
// goroutines — the partitioning Drive uses — and blocks until all are
// submitted and closed.
func feed(gw *Gateway, reqs []sim.Request, producers int) {
	handles := gw.Producers(producers)
	var wg sync.WaitGroup
	for pi, p := range handles {
		wg.Add(1)
		go func(pi int, p *Producer) {
			defer wg.Done()
			for i := pi; i < len(reqs); i += producers {
				p.Submit(reqs[i])
			}
			p.Close()
		}(pi, p)
	}
	wg.Wait()
}

// directFeed is the single-producer baseline: a default (one worker, one
// shard) engine fed the stream directly, in slice order, with no gateway in
// front. What the gateway tests pin against it is the release order; the
// engine's own worker/shard invariance is internal/dispatch's to prove.
func directFeed(t *testing.T, cfg sim.Config, reqs []sim.Request) []int {
	t.Helper()
	e, err := dispatch.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, r := range reqs {
		e.Enqueue(r)
	}
	e.Flush()
	out := make([]int, len(reqs))
	for i, r := range reqs {
		veh, ok := e.Assignment(r.ID)
		if !ok {
			t.Fatalf("direct feed: request %d never dispatched", r.ID)
		}
		out[i] = veh
	}
	return out
}

// TestIngressEquivalence: with shedding disabled (Block policy) the
// gateway must hand the engine the exact time-sorted single-producer
// sequence no matter how many producers race the front door, so
// assignments stay bit-identical to the directly-fed engine at every
// producers × workers combination — in both immediate and batch-window
// mode.
func TestIngressEquivalence(t *testing.T) {
	g, factory, reqs := testWorld(t, 120)

	want := map[float64][]int{0: directFeed(t, baseConfig(g, factory), reqs)}
	batchCfg := baseConfig(g, factory)
	batchCfg.BatchWindow = 30
	want[30] = directFeed(t, batchCfg, reqs)

	for _, producers := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			for _, batch := range []float64{0, 30} {
				name := fmt.Sprintf("producers=%d/workers=%d/batch=%g", producers, workers, batch)
				t.Run(name, func(t *testing.T) {
					cfg := baseConfig(g, factory)
					cfg.Workers = workers
					cfg.Shards = workers
					cfg.BatchWindow = batch
					e, err := dispatch.New(cfg, factory)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()

					gw := New(Config{Queues: e.Shards(), Depth: 8, Policy: Block})
					go feed(gw, reqs, producers)
					handed := 0
					gw.Drain(func(r sim.Request) {
						if r.ID != reqs[handed].ID {
							t.Errorf("handoff %d: got request %d, want %d (stamped order broken)",
								handed, r.ID, reqs[handed].ID)
						}
						handed++
						e.Enqueue(r)
					})
					e.Flush()
					if handed != len(reqs) {
						t.Fatalf("handed off %d of %d requests", handed, len(reqs))
					}

					// Either mode must match the direct single-producer
					// feed bit for bit.
					for i, r := range reqs {
						veh, ok := e.Assignment(r.ID)
						if !ok {
							t.Fatalf("request %d never dispatched", r.ID)
						}
						if veh != want[batch][i] {
							t.Fatalf("request %d assigned to %d, direct feed chose %d", r.ID, veh, want[batch][i])
						}
					}
					m := gw.Metrics()
					if m.Admitted != len(reqs) || m.Shed() != 0 {
						t.Fatalf("admitted=%d shed=%d, want %d/0", m.Admitted, m.Shed(), len(reqs))
					}
					if m.IngressQueuePeak == 0 || m.IngressQueuePeak > 8 {
						t.Fatalf("queue peak %d outside (0, depth]", m.IngressQueuePeak)
					}
					if err := e.Drain(); err != nil {
						t.Fatal(err)
					}
					if err := e.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestShedOldest: with a shedding queue and no drain running, pushing past
// capacity evicts the oldest entries and counts them; the survivors drain
// in stamped order.
func TestShedOldest(t *testing.T) {
	gw := New(Config{Queues: 1, Depth: 4, Policy: ShedOldest})
	p := gw.Producers(1)[0]
	const total = 10
	for i := 0; i < total; i++ {
		if !p.Submit(sim.Request{ID: int64(i), Time: float64(i)}) {
			t.Fatalf("shed-oldest refused submission %d", i)
		}
	}
	p.Close()
	var got []int64
	gw.Drain(func(r sim.Request) { got = append(got, r.ID) })
	m := gw.Metrics()
	if m.ShedOverflow != total-4 {
		t.Fatalf("ShedOverflow=%d, want %d", m.ShedOverflow, total-4)
	}
	if m.Admitted != 4 {
		t.Fatalf("Admitted=%d, want 4", m.Admitted)
	}
	want := []int64{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v (newest survive, stamped order)", got, want)
		}
	}
}

// TestDeadlineShedNeverHandsOffBlown: under ShedDeadline, no request whose
// waiting-time window is already blown (by the gateway's logical clock)
// may reach the sink — the acceptance criterion for deadline shedding —
// while fresh requests pass through and the sheds are counted.
func TestDeadlineShedNeverHandsOffBlown(t *testing.T) {
	const wait = 600
	gw := New(Config{Queues: 2, Depth: 64, Policy: ShedDeadline, WaitSeconds: wait})
	ps := gw.Producers(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// A fast feed that advances the logical clock far ahead.
		for i := 0; i < 50; i++ {
			ps[0].Submit(sim.Request{ID: int64(i), Time: float64(i) * 100})
		}
		ps[0].Close()
	}()
	go func() {
		defer wg.Done()
		// A laggard whose requests are generated early but submitted as
		// the clock races past their window.
		for i := 0; i < 50; i++ {
			ps[1].Submit(sim.Request{ID: int64(1000 + i), Time: float64(i) * 2})
		}
		ps[1].Close()
	}()
	// Queue capacity (2 × 64) exceeds the 100 submissions, so nothing
	// blocks; finishing the producers first makes the logical clock final
	// and the handoff-lag assertion exact.
	wg.Wait()
	handed := 0
	gw.Drain(func(r sim.Request) {
		handed++
		if lag := gw.Now() - r.Time; lag > wait {
			t.Errorf("request %d handed off %v seconds late (window %v)", r.ID, lag, float64(wait))
		}
	})
	m := gw.Metrics()
	if m.Admitted != handed {
		t.Fatalf("Admitted=%d but sink saw %d", m.Admitted, handed)
	}
	if m.Admitted+m.ShedDeadline != 100 {
		t.Fatalf("admitted %d + shed %d != 100 submissions", m.Admitted, m.ShedDeadline)
	}
	if m.ShedDeadline == 0 {
		t.Fatal("laggard stream should have shed something")
	}
	if m.Admitted == 0 {
		t.Fatal("fresh stream should have been admitted")
	}
}

// TestDeadlinePerRequestOverride: a request's own WaitSeconds overrides
// the fleet default in the deadline check.
func TestDeadlinePerRequestOverride(t *testing.T) {
	gw := New(Config{Queues: 1, Depth: 8, Policy: ShedDeadline, WaitSeconds: 10000})
	ps := gw.Producers(2)
	ps[0].Submit(sim.Request{ID: 0, Time: 5000}) // advances the clock
	// Fleet window (10000) would admit this 4999-second-late request from
	// the second producer, but its personal 60-second window is long blown.
	if ps[1].Submit(sim.Request{ID: 1, Time: 1, WaitSeconds: 60}) {
		t.Fatal("blown per-request window was admitted")
	}
	ps[0].Close()
	ps[1].Close()
	gw.Drain(func(sim.Request) {})
	if m := gw.Metrics(); m.ShedDeadline != 1 || m.Admitted != 1 {
		t.Fatalf("admitted=%d shedDeadline=%d, want 1/1", m.Admitted, m.ShedDeadline)
	}
}

// TestProducerClampsTime: a producer's out-of-order event time is clamped
// to its previous one, like the engine clamps against its clock.
func TestProducerClampsTime(t *testing.T) {
	gw := New(Config{Queues: 1, Depth: 8})
	p := gw.Producers(1)[0]
	p.Submit(sim.Request{ID: 0, Time: 100})
	p.Submit(sim.Request{ID: 1, Time: 50}) // clamped to 100
	p.Close()
	var times []float64
	gw.Drain(func(r sim.Request) { times = append(times, r.Time) })
	if len(times) != 2 || times[0] != 100 || times[1] != 100 {
		t.Fatalf("times=%v, want [100 100]", times)
	}
}

// TestStampedOrderTotal: equal event times are ordered by request ID no
// matter which producer or queue they arrived through.
func TestStampedOrderTotal(t *testing.T) {
	gw := New(Config{Queues: 3, Depth: 8})
	ps := gw.Producers(2)
	// Interleave equal-time submissions across producers, IDs reversed
	// relative to submission order.
	ps[0].Submit(sim.Request{ID: 5, Time: 1})
	ps[1].Submit(sim.Request{ID: 2, Time: 1})
	ps[0].Submit(sim.Request{ID: 9, Time: 1})
	ps[1].Submit(sim.Request{ID: 0, Time: 1})
	ps[0].Close()
	ps[1].Close()
	var got []int64
	gw.Drain(func(r sim.Request) { got = append(got, r.ID) })
	want := []int64{0, 2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

// TestStampHeapOrdering pins the hand-rolled heap's property directly:
// pushing adversarially ordered stamps (duplicate times, duplicate
// (time, ID) pairs, interleaved pushes and pops) always pops in
// nondecreasing stamped order.
func TestStampHeapOrdering(t *testing.T) {
	state := int64(99)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		v := (state >> 33) % mod
		if v < 0 {
			v += mod
		}
		return v
	}
	// pop must return a minimum of the heap's current contents: no
	// remaining element may precede it in stamped order.
	popMin := func(h *stampHeap) stamped {
		t.Helper()
		top := h.pop()
		for _, s := range *h {
			if s.before(top) {
				t.Fatalf("pop returned %+v with smaller %+v still in heap", top, s)
			}
		}
		return top
	}
	var h stampHeap
	popped := 0
	for i := 0; i < 2000; i++ {
		// Small value ranges force heavy time and (time, ID) collisions so
		// every tiebreak level of stamped.before is exercised.
		h.push(stamped{
			req: sim.Request{ID: next(7), Time: float64(next(5))},
			seq: uint64(i),
		})
		if next(3) == 0 {
			popMin(&h)
			popped++
		}
	}
	// The final drain is what Drain's release loop runs; it must come out
	// in nondecreasing stamped order.
	prev, ok := stamped{}, false
	for h.Len() > 0 {
		s := popMin(&h)
		popped++
		if ok && s.before(prev) {
			t.Fatalf("drain out of order: %+v after %+v", s, prev)
		}
		prev, ok = s, true
	}
	if popped != 2000 {
		t.Fatalf("popped %d stamps, pushed 2000", popped)
	}
}

// TestGatewayBackpressureStress drives many producers through tiny queues
// with the blocking policy so the full producer-block/drain-free cycle
// runs under the race detector.
func TestGatewayBackpressureStress(t *testing.T) {
	const producers, perProducer = 8, 200
	gw := New(Config{Queues: 4, Depth: 2, Policy: Block})
	reqs := make([]sim.Request, producers*perProducer)
	for i := range reqs {
		reqs[i] = sim.Request{ID: int64(i), Time: float64(i) / 10}
	}
	go feed(gw, reqs, producers)
	seen := make(map[int64]bool, len(reqs))
	last := math.Inf(-1)
	gw.Drain(func(r sim.Request) {
		if r.Time < last {
			t.Errorf("handoff went back in time: %v after %v", r.Time, last)
		}
		last = r.Time
		if seen[r.ID] {
			t.Errorf("request %d handed off twice", r.ID)
		}
		seen[r.ID] = true
	})
	if len(seen) != len(reqs) {
		t.Fatalf("handed off %d of %d", len(seen), len(reqs))
	}
	if m := gw.Metrics(); m.Shed() != 0 {
		t.Fatalf("blocking policy shed %d requests", m.Shed())
	}
}

// TestParsePolicy covers the CLI spellings.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, ShedOldest, ShedDeadline, Adaptive} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestShardIndexKeying: the gateway keys queues with dispatch's partition
// function, including negative IDs.
func TestShardIndexKeying(t *testing.T) {
	if dispatch.ShardIndex(7, 4) != 3 {
		t.Fatalf("ShardIndex(7,4)=%d", dispatch.ShardIndex(7, 4))
	}
	if got := dispatch.ShardIndex(-3, 4); got < 0 || got >= 4 {
		t.Fatalf("ShardIndex(-3,4)=%d out of range", got)
	}
	// A negative-ID request must not panic the queue lookup.
	gw := New(Config{Queues: 4, Depth: 4})
	p := gw.Producers(1)[0]
	p.Submit(sim.Request{ID: -3, Time: 1})
	p.Close()
	n := 0
	gw.Drain(func(sim.Request) { n++ })
	if n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
}

// Compile-time check: the dispatch engine is a valid gateway sink on both
// paths (Enqueue covers immediate and batch modes).
var _ interface{ Enqueue(sim.Request) } = (*dispatch.Engine)(nil)

// TestIngressEquivalenceTraced: lifecycle tracing and live counters record
// but never branch, so a fully instrumented pipeline (traced gateway +
// traced engine) must produce assignments bit-identical to the untraced
// run at every producers × workers combination — and the trace must
// actually contain the events it claims to capture.
func TestIngressEquivalenceTraced(t *testing.T) {
	g, factory, reqs := testWorld(t, 120)

	// Untraced, ungated baseline.
	want := directFeed(t, baseConfig(g, factory), reqs)

	for _, producers := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("producers=%d/workers=%d", producers, workers)
			t.Run(name, func(t *testing.T) {
				tracer := obs.NewTracer(1 << 16) // hold every event: no drops
				live := &obs.Live{}
				cfg := baseConfig(g, factory)
				cfg.Workers = workers
				cfg.Shards = workers
				cfg.Trace = tracer
				cfg.Live = live
				e, err := dispatch.New(cfg, factory)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()

				gw := New(Config{
					Queues: e.Shards(), Depth: 8, Policy: Block,
					Trace: tracer, Live: live,
				})
				go feed(gw, reqs, producers)
				gw.Drain(func(r sim.Request) { e.Enqueue(r) })

				for i, r := range reqs {
					veh, ok := e.Assignment(r.ID)
					if !ok {
						t.Fatalf("request %d never dispatched", r.ID)
					}
					if veh != want[i] {
						t.Fatalf("request %d assigned to %d, untraced direct feed chose %d",
							r.ID, veh, want[i])
					}
				}

				// The trace must hold the full lifecycle: every request was
				// admitted, queued, released, trialed, and resolved.
				var buf bytes.Buffer
				written, dropped, err := tracer.Drain(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if dropped != 0 {
					t.Fatalf("%d events dropped with oversized rings", dropped)
				}
				kinds := make(map[string]int)
				for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
					var ev struct {
						Event string `json:"event"`
					}
					if err := json.Unmarshal(line, &ev); err != nil {
						t.Fatalf("bad trace line %q: %v", line, err)
					}
					kinds[ev.Event]++
				}
				for _, k := range []string{"admitted", "queued", "released"} {
					if kinds[k] != len(reqs) {
						t.Fatalf("%d %q events, want %d (kinds: %v)", kinds[k], k, len(reqs), kinds)
					}
				}
				// Every shard emits one fan-out trial event per request.
				if kinds["trialed"] != len(reqs)*workers {
					t.Fatalf("%d \"trialed\" events, want %d (one per shard per request)",
						kinds["trialed"], len(reqs)*workers)
				}
				if kinds["matched"]+kinds["rejected"] != len(reqs) {
					t.Fatalf("matched+rejected = %d, want %d", kinds["matched"]+kinds["rejected"], len(reqs))
				}
				if written != sum(kinds) {
					t.Fatalf("written=%d but counted %d", written, sum(kinds))
				}

				// Live counters must agree with the ground truth.
				admitted, requests := live.Load(obs.Admitted), live.Load(obs.Requests)
				if admitted != int64(len(reqs)) || requests != int64(len(reqs)) {
					t.Fatalf("live admitted=%d requests=%d, want %d", admitted, requests, len(reqs))
				}
				matched, rejected := live.Load(obs.Matched), live.Load(obs.Rejected)
				if int(matched) != kinds["matched"] || int(rejected) != kinds["rejected"] {
					t.Fatalf("live matched=%d rejected=%d, trace says %d/%d",
						matched, rejected, kinds["matched"], kinds["rejected"])
				}
			})
		}
	}
}

func sum(m map[string]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}

// TestLiveAgreesWithMetrics: every event is counted once, so at quiescence
// each live counter equals the same-named value of the run's metrics
// snapshot — under every policy, sheds included. In particular admitted
// means released to the engine in both, not stamped into the order.
func TestLiveAgreesWithMetrics(t *testing.T) {
	g, factory, reqs := testWorld(t, 60)
	for _, policy := range []Policy{Block, ShedOldest, ShedDeadline, Adaptive} {
		t.Run(policy.String(), func(t *testing.T) {
			live := &obs.Live{}
			slo := obs.NewSLOTracker(0.99, time.Hour)
			cfg := baseConfig(g, factory)
			cfg.BatchWindow = 30
			cfg.Live = live
			e, err := dispatch.New(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			gw := New(Config{Queues: e.Shards(), Depth: 4, Policy: policy, SLO: slo, Live: live})
			ps := gw.Producers(2)
			submit := func() {
				for _, r := range reqs {
					ps[0].Submit(r)
				}
				// Far behind the clock for its own 60 s window: the
				// deadline-checking policies refuse it at admission.
				stale := reqs[0]
				stale.ID, stale.WaitSeconds = int64(len(reqs)), 60
				ps[1].Submit(stale)
				ps[0].Close()
				ps[1].Close()
			}
			if policy == ShedOldest || policy == Adaptive {
				submit() // evicting policies never block: overflow the queues before draining
			} else {
				go submit()
			}
			gw.Drain(e.Enqueue)
			e.Flush()
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			m := e.Metrics()
			gw.MetricsInto(m)
			if policy != Block && m.Shed() == 0 {
				t.Fatalf("%s shed nothing; the test needs at least one shed", policy)
			}
			raw, err := json.Marshal(m.Snapshot(slo))
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]any
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			want["conflicts"] = float64(m.ConflictsRepaired)
			want["flushes"] = float64(m.FlushLatency.Count())
			want["backlog"] = float64(0)
			for k, v := range live.Snapshot(slo) {
				if k == "shed_level_pm" || k == "slo_burn_pm" {
					continue // live-only gauges: the current level and burn
				}
				if w, ok := want[k]; !ok || float64(v) != w {
					t.Errorf("live %s = %d, metrics say %v", k, v, w)
				}
			}
		})
	}
}
