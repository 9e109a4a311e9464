// Package dispatch is the matching engine, the only matching loop in the
// tree: the paper's kinetic-tree matching loop — trial-insert a request
// into every candidate vehicle's tree and keep the cheapest — is
// embarrassingly parallel across vehicles, so the engine partitions the
// fleet into shards and fans each request's trial insertions out over a
// worker pool. At one worker (the default) the shards run inline on the
// caller and no pool exists: that is the paper's sequential evaluation
// loop.
//
// Each shard owns its vehicles, their kinetic trees, a private slice of the
// spatial index, and a per-goroutine sp.Oracle, so no unsynchronized oracle
// state is ever shared between goroutines. The shard oracles come in two
// flavours: fully private stacks built by an OracleFactory (each shard
// re-learns every distance), or — preferred — per-shard facades over one
// fleet-wide cache.Shared stack, so that every shard consults and feeds the
// same concurrency-safe striped distance table and a distance learned by
// one shard (d(pickup, dropoff), say) is a hit for all the others. Trials
// reduce to the globally cheapest feasible candidate with deterministic
// tie-breaking (cost, then vehicle ID), and the winner commits on its
// owning shard. For a fixed seed the engine produces bit-identical match
// assignments at any worker/shard count and with either flavour,
// because every partition drives the same sim.Worker primitives over the
// same seed-determined fleet and exact distances do not depend on who
// computed them; the equivalence tests hold it to an independent naive
// matcher (reference_test.go).
//
// A batch-window mode (Config.BatchWindow) collects requests for a fixed
// window and matches the batch greedily in arrival order with incremental
// intra-batch conflict repair — only candidates dirtied by an earlier
// commit in the flush are re-trialed; see batch.go. Requests may be
// cancelled while they wait in the window.
package dispatch

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/spatial"
)

// ShardIndex is the engine's partitioning function: it maps an entity ID
// to its owning shard in [0, n). Vehicles live on shard ID mod n, and the
// ingress gateway (internal/ingest) keys its per-shard admission queues
// with the same function, so a request stream's queue affinity follows the
// fleet partition. Negative IDs are folded into range so arbitrary request
// IDs are safe to key with.
func ShardIndex(id int64, n int) int {
	s := int(id % int64(n))
	if s < 0 {
		s += n
	}
	return s
}

// OracleFactory builds one shortest-path oracle per shard. Factories must
// return independent instances: shard oracles answer queries concurrently,
// and the stock per-goroutine sp/cache implementations are not
// thread-safe. A factory that closes over one cache.Shared stack and
// returns per-shard facades (shared.NewWorker) gives the shards a common
// distance cache; passing the stack as cfg.Oracle with a nil factory does
// the same thing (see New).
type OracleFactory func() sp.Oracle

// Engine is the sharded dispatcher. The exported methods are driven from
// one goroutine; the concurrency is internal, across shards.
type Engine struct {
	cfg      sim.Config
	shards   []*shard
	workers  int
	tasks    chan func()
	wg       sync.WaitGroup
	closed   bool
	clock    float64
	metrics  *sim.Metrics // request-level counters; shard metrics merge in
	assigned map[int64]int
	ring     *obs.Ring // engine-level lifecycle events (nil = tracing off)
	live     *obs.Live // live counters (nil = off)

	// Batch-window state (batch.go).
	pending    []sim.Request
	batchStart float64
	flushSeq   int64 // flushes performed; the flush span's instance key

	// Distinct cache stacks behind the shard oracles, deduplicated once at
	// construction (the shard oracles never change), so Metrics() does not
	// rebuild the dedup set on every call.
	caches []*cache.Shared

	// Reusable scratch. The exported API is driven from one goroutine and
	// the pool is quiescent between fan-outs, so per-call buffers can live
	// on the engine instead of being remade per request/flush.
	bests []shardBest // per-shard fan-out winners (Submit)
	busy  []bool      // per-shard busy flags (Drain)
	flush flushScratch

	drainRoundCap int   // test hook; 0 selects defaultDrainRoundCap
	drainErr      error // sticky Drain truncation error, surfaced by CheckInvariants
}

// lowerBoundLandmarks is the size of the landmark index whose lower bounds
// let the kinetic trees skip distance searches they could only reject
// (core.TreeOptions.Lower). Eight is what sp's ALT backend uses too. On
// the benchmark suite's four workloads the bound rejects 59–71 % of the
// insertion lookups the shared table does not hold, and only 3–11 % of
// the lookups it lets through are then rejected at the exact distance, so
// more landmarks would buy little. The tables cost 8 doubles a vertex.
const lowerBoundLandmarks = 8

// drainStep is the simulated seconds each Drain round advances the fleet.
const drainStep = 3600

// defaultDrainRoundCap bounds Drain to ~11 simulated years. It is a sanity
// cap against a wedged fleet (a vehicle that never finishes its schedule),
// not a truncation point for long-but-finite schedules: hitting it is
// reported as an explicit error instead of silently abandoning in-flight
// passengers.
const defaultDrainRoundCap = 100000

// flushScratch is the per-flush working set of batch.go, reused across
// windows so a steady request stream allocates nothing per flush beyond
// first-window growth.
type flushScratch struct {
	waits, epss, radii, pxs, pys []float64
	p1                           [][]phase1 // rows into p1flat
	p1flat                       []phase1
	durs                         [][]time.Duration // rows into durflat
	durflat                      []time.Duration
	dirty                        map[int]bool
	dirtyIDs                     [][]int
	fresh                        []shardBest
	needy                        []*shard
}

// grow returns s resized to n elements, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite every element.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// shard owns a partition of the fleet. All of a shard's state is touched by
// at most one goroutine at a time: the pool runs one task per shard, and
// commits happen between fan-outs.
type shard struct {
	id       int
	nshards  int
	w        *sim.Worker
	grid     *spatial.GridIndex
	vehicles []*sim.Vehicle // local slice; global ID = local*nshards + id
	reports  sim.ReportHeap
	cand     []spatial.ObjectID // scratch
	feasFree [][]vehTrial       // recycled phase-1 retention buffers
	ring     *obs.Ring          // per-shard trial events; single-writer because
	// the pool runs at most one task per shard and fan-outs are serialized
	fault *faults.WorkerHook // injected stalls/slow trials (nil = off);
	// single-writer for the same reason as ring
}

// feasBuf pops a recycled phase-1 retention buffer (nil when none are
// free). Buffers are returned by the batch planner after it consumes a
// request's retained trials; the handoff is race-free because the planner
// runs between fan-outs, when the pool is quiescent.
func (s *shard) feasBuf() []vehTrial {
	if n := len(s.feasFree); n > 0 {
		b := s.feasFree[n-1]
		s.feasFree = s.feasFree[:n-1]
		return b
	}
	return nil
}

// vehicle returns the shard's vehicle with the given global ID.
func (s *shard) vehicle(global int) *sim.Vehicle { return s.vehicles[global/s.nshards] }

// New builds an engine over cfg. cfg.Workers sizes the worker pool
// (default 1), cfg.Shards the fleet partition count (default = workers).
// oracles supplies one private oracle per shard. With a nil factory the
// engine derives the shard oracles from cfg.Oracle by its thread-safety
// class (see the sp.Oracle taxonomy):
//
//   - sp.WorkerSource (e.g. *cache.Shared): every shard gets its own
//     facade, so all shards consult the single shared distance cache;
//   - sp.SharedOracle (Matrix, HubLabels): all shards use it directly;
//   - any other oracle is per-goroutine and only legal when the pool is
//     sequential (Workers <= 1).
func New(cfg sim.Config, oracles OracleFactory) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("dispatch: Graph is required")
	}
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("dispatch: need at least one server, got %d", cfg.Servers)
	}
	if cfg.Algorithm < sim.AlgoTreeBasic || cfg.Algorithm > sim.AlgoTreeHotspot {
		return nil, fmt.Errorf("dispatch: %v is not a kinetic-tree variant", cfg.Algorithm)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		if cfg.AutoTune {
			nshards = sim.DeriveShards(cfg.Servers, workers)
		} else {
			nshards = workers
		}
	}
	if nshards > cfg.Servers {
		nshards = cfg.Servers
	}
	if oracles == nil {
		switch o := cfg.Oracle.(type) {
		case nil:
			return nil, fmt.Errorf("dispatch: Oracle or OracleFactory is required")
		case sp.WorkerSource:
			oracles = func() sp.Oracle { return o.NewWorkerOracle() }
		case sp.SharedOracle:
			oracles = func() sp.Oracle { return o }
		default:
			if workers > 1 {
				return nil, fmt.Errorf("dispatch: %d workers need an OracleFactory or a concurrency-safe cfg.Oracle (per-goroutine oracles cannot be shared)", workers)
			}
			oracles = func() sp.Oracle { return o } //vetkit:allow oracletaxonomy workers == 1 on this branch (guarded above): a single worker cannot share
		}
	}

	// One landmark index for every shard's trees: read-only once built.
	lower := sp.NewALT(cfg.Graph, lowerBoundLandmarks)
	e := &Engine{
		cfg:      cfg,
		workers:  workers,
		metrics:  sim.NewMetrics(),
		assigned: make(map[int64]int),
		ring:     cfg.Trace.Ring("engine"),
		live:     cfg.Live,
	}
	minX, minY, maxX, maxY := cfg.Graph.Bounds()
	for i := 0; i < nshards; i++ {
		w := sim.NewWorker(cfg, oracles(), sim.NewMetrics())
		w.SetLowerBound(lower)
		grid, err := spatial.NewGridIndex(minX, minY, maxX, maxY, w.CellSize())
		if err != nil {
			return nil, err
		}
		ring := cfg.Trace.Ring(fmt.Sprintf("shard-%d", i))
		w.SetTrace(ring, cfg.Live)
		e.shards = append(e.shards, &shard{
			id: i, nshards: nshards, w: w, grid: grid, ring: ring,
			fault: cfg.Faults.Worker(),
		})
	}
	// Seed-determined placement, independent of the partition ("a vehicle
	// is initialized to a random vertex in the city", §VI): vehicle i lives
	// on shard i mod nshards, and position reports are staggered across the
	// fleet.
	for i, p := range sim.Placements(cfg) {
		s := e.shards[i%nshards]
		v := s.w.NewVehicle(i, p.Loc)
		s.vehicles = append(s.vehicles, v)
		x, y := cfg.Graph.Coord(p.Loc)
		s.grid.Insert(spatial.ObjectID(i), x, y)
		s.reports.Push(sim.Report{Due: p.FirstReport, Veh: i})
	}
	e.metrics.SetTuning(nshards, e.shards[0].w.CellSize(), cfg.AutoTune)
	e.bests = make([]shardBest, nshards)
	e.busy = make([]bool, nshards)
	e.flush.dirty = make(map[int]bool)
	e.flush.dirtyIDs = make([][]int, nshards)
	e.flush.fresh = make([]shardBest, nshards)
	e.flush.needy = make([]*shard, 0, nshards)
	e.dedupCaches()
	if workers > 1 {
		e.tasks = make(chan func(), nshards)
		for i := 0; i < workers; i++ {
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				for fn := range e.tasks {
					fn()
				}
			}()
		}
	}
	return e, nil
}

// Close stops the worker pool. The engine must not be used afterwards.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.tasks != nil {
		close(e.tasks)
		e.wg.Wait()
	}
}

// Shards returns the fleet partition count.
func (e *Engine) Shards() int { return len(e.shards) }

// Workers returns the trial worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// parallel runs fn once per shard, concurrently when a pool exists, and
// returns when every shard is done. Shard state is only ever touched from
// inside fn, so no further synchronization is needed.
func (e *Engine) parallel(fn func(s *shard)) { e.parallelOn(e.shards, fn) }

// parallelOn is parallel restricted to the given shards. A single shard —
// the common incremental-repair case — runs inline on the caller,
// skipping the pool round-trip; the pool is quiescent between fan-outs,
// so the caller touching one shard's state is as safe as the poolless
// path.
func (e *Engine) parallelOn(shards []*shard, fn func(s *shard)) {
	if e.tasks == nil || len(shards) == 1 {
		for _, s := range shards {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for _, s := range shards {
		s := s
		e.tasks <- func() {
			defer wg.Done()
			fn(s)
		}
	}
	wg.Wait()
}

// drainReportsUntil advances the shard's vehicles whose position report is
// due before t and refreshes their index entries. Due vehicles are
// rescheduled in place with ReplaceMin, so the loop allocates nothing.
func (s *shard) drainReportsUntil(g *sim.Config, t float64) {
	interval := s.w.ReportInterval()
	for s.reports.Len() > 0 && s.reports.Min().Due <= t {
		r := s.reports.Min()
		v := s.vehicle(r.Veh)
		s.w.AdvanceTo(v, r.Due)
		x, y := g.Graph.Coord(v.Loc())
		s.grid.Update(spatial.ObjectID(r.Veh), x, y)
		s.reports.ReplaceMin(sim.Report{Due: r.Due + interval, Veh: r.Veh})
	}
}

// shardBest is one shard's cheapest feasible candidate for a request.
type shardBest struct {
	veh   int // global vehicle ID, -1 if none feasible
	trial sim.Trial
}

// trial runs the request's trial insertions over this shard's candidate
// vehicles and returns the shard-local winner. Candidates arrive from the
// grid in ascending ID order and win on strictly smaller cost, so the
// shard winner is its lowest-ID cheapest vehicle — the same rule reduce
// applies globally.
func (s *shard) trial(cfg *sim.Config, req sim.Request, px, py, waitMeters, eps, radius float64) shardBest {
	spanStart := s.ring.SpanStart()
	s.drainReportsUntil(cfg, req.Time)
	s.cand = s.grid.Within(s.cand[:0], px, py, radius)
	s.fault.BeforeFanout(req.ID, req.Time)
	best := shardBest{veh: -1}
	for _, id := range s.cand {
		v := s.vehicle(int(id))
		s.fault.BeforeTrial(req.ID, req.Time)
		s.w.AdvanceTo(v, req.Time)
		tr, ok := s.w.Trial(v, req, px, py, waitMeters, eps)
		if !ok {
			continue
		}
		if b := (shardBest{veh: int(id), trial: tr}); better(b, best) {
			best = b
		}
	}
	s.ring.Emit(obs.KindTrialed, req.ID, req.Time, int64(len(s.cand)))
	// Immediate-mode phase-1 span: one per shard, nested under the match
	// span the engine emits around the whole fan-out.
	s.ring.EmitSpan(obs.Span{
		ID:     obs.SpanID(req.ID, obs.StagePhase1, int64(s.id)),
		Parent: obs.SpanID(req.ID, obs.StageMatch, 0),
		Req:    req.ID, Stage: obs.StagePhase1, T: req.Time,
		Arg: int64(len(s.cand)), Start: spanStart,
	})
	return best
}

// vehTrial is one candidate vehicle's retained trial outcome.
type vehTrial struct {
	veh   int // global vehicle ID
	trial sim.Trial
}

// phase1 is a shard's retained phase-1 state for one batch request: every
// feasible candidate's trial outcome in ascending vehicle ID order, plus
// the number of trial insertions performed (feasible or not) — what a
// full re-fan-out of the request would cost.
type phase1 struct {
	feas    []vehTrial
	trialed int
}

// trialRetain runs the request's trial insertions over this shard's
// candidate vehicles like trial, but retains every feasible candidate's
// outcome instead of only the shard best — the state the batch planner
// needs for incremental conflict repair (retained trials stay committable
// until their vehicle mutates; see sim.Trial's retention semantics).
func (s *shard) trialRetain(cfg *sim.Config, req sim.Request, px, py, waitMeters, eps, radius float64) phase1 {
	spanStart := s.ring.SpanStart()
	s.drainReportsUntil(cfg, req.Time)
	s.cand = s.grid.Within(s.cand[:0], px, py, radius)
	s.fault.BeforeFanout(req.ID, req.Time)
	before := s.w.Metrics().TrialCalls
	feas := s.feasBuf()
	for _, id := range s.cand {
		v := s.vehicle(int(id))
		s.fault.BeforeTrial(req.ID, req.Time)
		s.w.AdvanceTo(v, req.Time)
		if tr, ok := s.w.Trial(v, req, px, py, waitMeters, eps); ok {
			feas = append(feas, vehTrial{veh: int(id), trial: tr})
		}
	}
	s.ring.Emit(obs.KindTrialed, req.ID, req.Time, int64(len(s.cand)))
	// Batch-mode phase-1 span: no per-request match span exists in batch
	// mode, so the shard span parents straight to the request root.
	s.ring.EmitSpan(obs.Span{
		ID:     obs.SpanID(req.ID, obs.StagePhase1, int64(s.id)),
		Parent: obs.RootSpanID(req.ID),
		Req:    req.ID, Stage: obs.StagePhase1, T: req.Time,
		Arg: int64(len(s.cand)), Start: spanStart,
	})
	return phase1{feas: feas, trialed: s.w.Metrics().TrialCalls - before}
}

// retrial re-runs trial insertions for just the given dirty candidates —
// vehicles owned by this shard that were committed to earlier in the
// current flush — against the updated fleet state. The batch planner
// merges the result with the request's surviving clean phase-1 trials.
func (s *shard) retrial(cfg *sim.Config, req sim.Request, px, py, waitMeters, eps float64, ids []int) shardBest {
	best := shardBest{veh: -1}
	for _, id := range ids {
		v := s.vehicle(id)
		s.fault.BeforeTrial(req.ID, req.Time)
		s.w.AdvanceTo(v, req.Time)
		tr, ok := s.w.Trial(v, req, px, py, waitMeters, eps)
		if !ok {
			continue
		}
		if b := (shardBest{veh: id, trial: tr}); better(b, best) {
			best = b
		}
	}
	return best
}

// better reports whether a beats b under the engine's deterministic
// matching order: cheapest cost, ties broken toward the lower vehicle ID.
// Infeasible entries (veh < 0) never win. This is a total order over
// distinct vehicles, so any reduction using it is independent of shard
// count and completion order.
func better(a, b shardBest) bool {
	if a.veh < 0 {
		return false
	}
	if b.veh < 0 {
		return true
	}
	return a.trial.Cost < b.trial.Cost || (a.trial.Cost == b.trial.Cost && a.veh < b.veh)
}

// reduce picks the global winner from per-shard bests under the better
// order.
func reduce(bests []shardBest) shardBest {
	out := shardBest{veh: -1}
	for _, b := range bests {
		if better(b, out) {
			out = b
		}
	}
	return out
}

// Submit matches one request immediately: it fans the trial insertions out
// across the shards, reduces to the globally cheapest feasible vehicle, and
// commits on the owning shard. It reports whether the request was matched
// and to which vehicle.
func (e *Engine) Submit(req sim.Request) (matched bool, vehID int) {
	matchStart := e.ring.SpanStart()
	if req.Time < e.clock {
		req.Time = e.clock // tolerate slightly out-of-order input
	}
	e.clock = req.Time
	e.metrics.Requests++
	e.live.Add(obs.Requests, 1)

	waitMeters, eps := e.shards[0].w.Budget(req)
	radius := e.shards[0].w.CandidateRadius(waitMeters)
	px, py := e.cfg.Graph.Coord(req.Pickup)

	started := time.Now() //vetkit:allow determinism ACRT metric only; the fan-out result is reduced deterministically
	e.parallel(func(s *shard) {
		e.bests[s.id] = s.trial(&e.cfg, req, px, py, waitMeters, eps, radius)
	})
	best := reduce(e.bests)
	e.metrics.AddACRT(time.Since(started)) //vetkit:allow determinism ACRT metric only

	if best.veh >= 0 {
		s := e.shards[ShardIndex(int64(best.veh), len(e.shards))]
		s.w.Commit(s.vehicle(best.veh), best.trial)
	}

	if best.veh < 0 {
		e.metrics.Rejected++
		e.live.Add(obs.Rejected, 1)
		e.ring.Emit(obs.KindRejected, req.ID, req.Time, -1)
		e.emitMatchSpan(req, matchStart, -1)
		e.assigned[req.ID] = -1
		return false, -1
	}
	e.ring.Emit(obs.KindMatched, req.ID, req.Time, int64(best.veh))
	e.emitMatchSpan(req, matchStart, int64(best.veh))
	e.assigned[req.ID] = best.veh
	return true, best.veh
}

// emitMatchSpan closes the immediate-mode match span around one Submit:
// fan-out, reduce, and commit. The per-shard phase1 spans nest under it.
func (e *Engine) emitMatchSpan(req sim.Request, start int64, veh int64) {
	e.ring.EmitSpan(obs.Span{
		ID:     obs.SpanID(req.ID, obs.StageMatch, 0),
		Parent: obs.RootSpanID(req.ID),
		Req:    req.ID, Stage: obs.StageMatch, T: req.Time,
		Arg: veh, Start: start,
	})
}

// Assignment reports the vehicle a request was matched to (-1 if it was
// rejected) and whether the request has been dispatched at all.
func (e *Engine) Assignment(reqID int64) (vehID int, dispatched bool) {
	v, ok := e.assigned[reqID]
	return v, ok
}

// Run replays all requests (sorted by time) and then lets the fleet finish
// its committed schedules. With a positive BatchWindow the stream is
// matched in windows; otherwise Enqueue matches each request on arrival. It
// returns the metrics, plus Drain's truncation error if the fleet could
// not finish within the drain-round sanity cap — the metrics are still
// returned, but they omit the stuck vehicles' completions.
func (e *Engine) Run(reqs []sim.Request) (*sim.Metrics, error) {
	for i := range reqs {
		e.Enqueue(reqs[i])
	}
	e.Flush()
	err := e.Drain()
	return e.Metrics(), err
}

// Drain advances every vehicle until its committed schedule is finished, so
// completion statistics cover all matched requests. A fleet still busy
// after the sanity cap (defaultDrainRoundCap rounds of drainStep seconds)
// is wedged; Drain returns an explicit error naming the stuck vehicles
// instead of silently dropping their in-flight passengers, and
// CheckInvariants reports the same error afterwards. Drain may be called
// again after further requests; each call recomputes the occupancy
// histogram from the fleet rather than adding to it.
func (e *Engine) Drain() error {
	e.drainErr = nil // a drain that completes clears any earlier truncation
	rounds := e.drainRoundCap
	if rounds <= 0 {
		rounds = defaultDrainRoundCap
	}
	busy := e.busy
	idle := false
	for round := 0; round < rounds && !idle; round++ {
		e.clock += drainStep
		e.parallel(func(s *shard) {
			busy[s.id] = false
			for _, v := range s.vehicles {
				if v.Busy() {
					s.w.AdvanceTo(v, e.clock)
					busy[s.id] = busy[s.id] || v.Busy()
				}
			}
		})
		idle = true
		for _, b := range busy {
			idle = idle && !b
		}
	}
	if !idle {
		stuck := 0
		e.eachVehicle(func(v *sim.Vehicle) {
			if v.Busy() {
				stuck++
			}
		})
		e.drainErr = fmt.Errorf("dispatch: drain truncated after %d rounds (%.0f s): %d vehicles still busy", rounds, float64(rounds)*drainStep, stuck)
	}
	// Peak occupancy per vehicle, rebuilt from scratch so a repeated Drain
	// never counts a vehicle twice.
	e.metrics.Occupancy = obs.NewHistogram()
	e.eachVehicle(func(v *sim.Vehicle) {
		e.metrics.AddOccupancy(v.PeakOnboard())
	})
	return e.drainErr
}

// eachVehicle visits the fleet in global ID order.
func (e *Engine) eachVehicle(fn func(v *sim.Vehicle)) {
	total := 0
	for _, s := range e.shards {
		total += len(s.vehicles)
	}
	for i := 0; i < total; i++ {
		fn(e.shards[ShardIndex(int64(i), len(e.shards))].vehicle(i))
	}
}

// Metrics merges the engine's request-level counters with the per-shard
// trial and service metrics, and folds in the aggregate shortest-path
// cache counters across every distinct oracle stack the shards use.
// Shards merge in shard order, so the result is deterministic for a fixed
// shard count.
func (e *Engine) Metrics() *sim.Metrics {
	out := sim.NewMetrics()
	out.Merge(e.metrics)
	for _, s := range e.shards {
		out.Merge(s.w.Metrics())
	}
	out.SetCacheStats(e.cacheStats())
	out.SetDistLatency(e.distLatency())
	return out
}

// dedupCaches resolves the distinct cache stacks behind the shard oracles
// once, at construction: a cache.SharedWorker facade resolves to its
// fleet-wide stack (which aggregates every facade), and a stack shared by
// several shards is recorded once, in shard order.
func (e *Engine) dedupCaches() {
	seen := make(map[*cache.Shared]bool, len(e.shards))
	for _, s := range e.shards {
		// Peel decorator facades (sp.Retry, faults.FlakyOracle) so a
		// shard oracle wrapped for fault tolerance still reports its
		// cache stack's stats.
		var stack *cache.Shared
		switch o := sp.Unwrap(s.w.Oracle()).(type) {
		case *cache.SharedWorker:
			stack = o.Shared()
		case *cache.Shared:
			stack = o
		}
		if stack != nil && !seen[stack] {
			seen[stack] = true
			e.caches = append(e.caches, stack)
		}
	}
}

// distLatency merges the sampled distance-lookup latency over the distinct
// cache stacks behind the shard oracles. Must be called from the driving
// goroutine between fan-outs, when the shards are quiescent.
func (e *Engine) distLatency() (hit, miss *obs.Histogram) {
	hit, miss = obs.NewHistogram(), obs.NewHistogram()
	for _, c := range e.caches {
		h, m := c.DistLatency()
		hit.Merge(h)
		miss.Merge(m)
	}
	return hit, miss
}

// cacheStats sums hit/miss counters over the distinct cache stacks behind
// the shard oracles. Quiescent-only, like distLatency.
func (e *Engine) cacheStats() (distHits, distMisses, pathHits, pathMisses uint64) {
	for _, c := range e.caches {
		dh, dm := c.DistStats()
		ph, pm := c.PathStats()
		distHits += dh
		distMisses += dm
		pathHits += ph
		pathMisses += pm
	}
	return
}

// CheckInvariants verifies the cross-cutting invariants over the whole
// fleet; tests and drivers call it after runs. It returns an error
// describing the first violation found.
func (e *Engine) CheckInvariants() error {
	if e.drainErr != nil {
		return e.drainErr
	}
	if m := e.Metrics(); m.Violations > 0 {
		return fmt.Errorf("dispatch: %d service-guarantee violations", m.Violations)
	}
	var firstErr error
	e.eachVehicle(func(v *sim.Vehicle) {
		if firstErr != nil {
			return
		}
		s := e.shards[ShardIndex(int64(v.ID()), len(e.shards))]
		if err := s.w.CheckVehicle(v); err != nil {
			firstErr = fmt.Errorf("dispatch: vehicle %d: %w", v.ID(), err)
		}
	})
	return firstErr
}
