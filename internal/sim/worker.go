package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// Worker executes the per-vehicle mechanics of the simulation — movement,
// trial scheduling, commits, and service accounting — against one oracle and
// one metrics sink. The dispatch engine (internal/dispatch) drives one
// Worker per shard — a single Worker over the whole fleet at one shard —
// each with its own per-goroutine oracle: a fully private engine, or a
// cache.SharedWorker facade whose distance lookups go through the
// fleet-wide concurrency-safe cache, so no unsynchronized oracle state is
// ever shared across goroutines.
//
// A Worker itself is not safe for concurrent use; concurrency comes from
// running disjoint Workers over disjoint vehicles.
type Worker struct {
	cfg     Config // defaults applied
	graph   *roadnet.Graph
	oracle  sp.Oracle
	metrics *Metrics
	ring    *obs.Ring // lifecycle events (nil = tracing off)
	live    *obs.Live // live counters (nil = off)
	lower   *sp.ALT   // landmark bounds for the trees (nil = none)
}

// NewWorker builds a worker over the graph in cfg using the given oracle
// (which may differ from cfg.Oracle when the fleet is sharded) and metrics
// sink.
func NewWorker(cfg Config, oracle sp.Oracle, m *Metrics) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{cfg: cfg, graph: cfg.Graph, oracle: oracle, metrics: m}
}

// SetTrace attaches a lifecycle-event ring and live counter set to the
// worker. Both may be nil (the default): emission is then a no-op. The
// engine calls this once at construction, before any request is driven.
func (w *Worker) SetTrace(ring *obs.Ring, live *obs.Live) {
	w.ring = ring
	w.live = live
}

// SetLowerBound hands the worker's future vehicles a landmark index whose
// lower bounds let their trees skip distance searches that could only be
// rejected (core.TreeOptions.Lower); it never changes a decision. The
// index is read-only, so every shard may share one. The engine calls this
// once at construction, before any vehicle is created.
func (w *Worker) SetLowerBound(lower *sp.ALT) { w.lower = lower }

// Metrics returns the worker's metrics sink.
func (w *Worker) Metrics() *Metrics { return w.metrics }

// Oracle returns the worker's shortest-path oracle; the dispatch engine
// uses it to aggregate cache statistics across shards.
func (w *Worker) Oracle() sp.Oracle { return w.oracle }

// ReportInterval returns the configured seconds between position reports.
func (w *Worker) ReportInterval() float64 { return w.cfg.ReportInterval }

// CellSize returns the configured spatial-index cell size in meters.
func (w *Worker) CellSize() float64 { return w.cfg.CellSize }

// Budget resolves the request's waiting budget (in meters) and service
// constraint, applying per-request overrides over the fleet defaults.
func (w *Worker) Budget(req Request) (waitMeters, eps float64) {
	waitMeters = w.cfg.WaitSeconds * roadnet.Speed
	if req.WaitSeconds > 0 {
		waitMeters = req.WaitSeconds * roadnet.Speed
	}
	eps = w.cfg.Epsilon
	if req.Epsilon > 0 {
		eps = req.Epsilon
	}
	return waitMeters, eps
}

// CandidateRadius is the spatial-index search radius for a request with the
// given waiting budget: the budget plus the maximum drift a vehicle may have
// accumulated since its last position report.
func (w *Worker) CandidateRadius(waitMeters float64) float64 {
	return waitMeters + w.cfg.ReportInterval*roadnet.Speed
}

// Placement is a vehicle's seed-determined starting state: its initial
// vertex and the time of its first position report.
type Placement struct {
	Loc         roadnet.VertexID
	FirstReport float64
}

// Placements returns the initial fleet layout for cfg ("a vehicle is
// initialized to a random vertex in the city", §VI). The layout depends
// only on the seed, never on the shard count, which is what makes matching
// decisions comparable bit-for-bit regardless of how the fleet is
// partitioned.
func Placements(cfg Config) []Placement {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int32(cfg.Graph.N())
	out := make([]Placement, cfg.Servers)
	for i := range out {
		out[i] = Placement{
			Loc:         roadnet.VertexID(rng.Int31n(n)),
			FirstReport: rng.Float64() * cfg.ReportInterval,
		}
	}
	return out
}

// NewVehicle creates vehicle id at loc, with the per-vehicle cruise RNG and
// a kinetic tree of the configured variant bound to this worker's oracle.
func (w *Worker) NewVehicle(id int, loc roadnet.VertexID) *Vehicle {
	opts := core.TreeOptions{
		Slack:            w.cfg.Algorithm != AlgoTreeBasic,
		Capacity:         w.cfg.Capacity,
		MaxTreeNodes:     w.cfg.MaxTreeNodes,
		LazyInvalidation: w.cfg.LazyInvalidation,
		Lower:            w.lower,
	}
	if w.cfg.Algorithm == AlgoTreeHotspot {
		opts.HotspotTheta = w.cfg.HotspotTheta
	}
	return &Vehicle{
		id:         id,
		loc:        loc,
		tree:       core.NewTree(w.oracle, loc, 0, opts),
		rng:        rand.New(rand.NewSource(w.cfg.Seed + int64(id) + 1)),
		requestOdo: make(map[int64]float64),
		pickupOdo:  make(map[int64]float64),
	}
}

// Trial is the outcome of a successful trial insertion, ready to Commit on
// the same vehicle provided no mutation of that vehicle intervened.
//
// Retention semantics: a Trial stays committable until its own vehicle
// mutates (a Commit on it, or movement via AdvanceTo), no matter how many
// further Trials run on the same vehicle in between — trial insertions
// leave the vehicle untouched (a kinetic-tree candidate is an independent
// new tree). The batch planner relies on this to retain every candidate's
// phase-1 trial across a whole flush and commit the surviving winner, or
// merge retained clean trials with fresh retrials of dirtied vehicles.
type Trial struct {
	Cost     float64
	treeCand *core.Candidate
	trip     core.TripState
}

// Trial trial-schedules req on v, which must already be advanced to the
// request time. (px, py) are the pickup coordinates; vehicles whose exact
// position lies beyond the waiting budget are skipped (Euclidean distance
// lower-bounds network distance on generator graphs). It records trial
// metrics exactly as the paper's evaluation counts them, hands the trial's
// instance to Config.Capture when set, and reports whether v can serve the
// request.
func (w *Worker) Trial(v *Vehicle, req Request, px, py, waitMeters, eps float64) (Trial, bool) {
	vx, vy := w.graph.Coord(v.loc)
	if dx, dy := vx-px, vy-py; dx*dx+dy*dy > waitMeters*waitMeters {
		return Trial{}, false
	}
	active := v.tree.ActiveTrips()
	trialStart := time.Now() //vetkit:allow determinism ART metric only; trial feasibility and cost are time-independent
	trip, err := core.NewTripState(req.ID, req.Pickup, req.Dropoff, waitMeters, eps, v.odo, w.oracle)
	if err != nil {
		// Unreachable dropoff: an infeasible trial like any other.
		w.metrics.AddART(active, time.Since(trialStart)) //vetkit:allow determinism ART metric only
		w.metrics.TrialFailures++
		return Trial{}, false
	}
	if w.cfg.Capture != nil {
		w.cfg.Capture(&core.Instance{
			Origin:   v.tree.Loc(),
			Odo:      v.tree.Odo(),
			Capacity: w.cfg.Capacity,
			Trips:    append(v.tree.ActiveTripStates(nil), trip),
		})
	}
	cand, ok, err := v.tree.TrialInsert(trip)
	w.metrics.AddART(active, time.Since(trialStart)) //vetkit:allow determinism ART metric only
	if err != nil {
		// Candidate tree exceeded the size budget: the paper's
		// basic/slack variants "break off" here (Fig. 9c).
		w.metrics.OverBudget++
		w.metrics.TrialFailures++
		return Trial{}, false
	}
	if !ok {
		w.metrics.TrialFailures++
		return Trial{}, false
	}
	return Trial{Cost: cand.Cost, treeCand: cand, trip: trip}, true
}

// Commit adopts a successful trial on v and accounts the match. The trial
// must have been produced since v's last mutation (Commit or movement);
// per Trial's retention semantics, trials on v in between are harmless.
func (w *Worker) Commit(v *Vehicle, tr Trial) {
	v.requestOdo[tr.trip.ID] = v.odo
	v.tree.Commit(tr.treeCand)
	if n := v.tree.Nodes(); n > w.metrics.TreeNodesMax {
		w.metrics.TreeNodesMax = n
	}
	w.metrics.Matched++
	w.live.Add(obs.Matched, 1)
}

// CheckVehicle verifies the per-vehicle invariants: a consistent kinetic
// tree and peak occupancy within the configured capacity.
func (w *Worker) CheckVehicle(v *Vehicle) error {
	if err := v.tree.Validate(); err != nil {
		return err
	}
	if w.cfg.Capacity > 0 && v.peakOnboard > w.cfg.Capacity {
		return fmt.Errorf("peak occupancy %d exceeds capacity %d", v.peakOnboard, w.cfg.Capacity)
	}
	return nil
}
