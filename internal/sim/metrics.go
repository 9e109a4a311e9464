// Package sim is the simulation model of the paper's evaluation (§VI): the
// run configuration and request type, the per-vehicle mechanics of a fleet
// of servers moving on the road network (Worker and Vehicle: movement,
// trial scheduling, commits, service accounting), and the measurements —
// matching performance (ACRT and ART) together with service statistics.
// The matching loop that drives them is internal/dispatch.
package sim

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/obs"
)

// Metrics aggregates the measurements the paper reports.
type Metrics struct {
	Counters
	Peaks

	// ACRT (average customer response time): total wall-clock time spent
	// completing the search for the best vehicle across all requests
	// (paper: "the average time required to complete the search for the
	// minimum time needed to satisfy a new request").
	acrtTotal time.Duration

	// ART (average response time) bucketed by the number of requests
	// already scheduled on the candidate vehicle (paper: "we calculate
	// ART separately for different current request sizes").
	artTotal map[int]time.Duration
	artCount map[int]int

	// Occupancy (paper §VI-B, unlimited capacity): the distribution of
	// per-server peak simultaneous passengers, one sample per drained
	// vehicle. Small counts land in the histogram's exact range, so the
	// paper's max/mean/top-20% stats stay exact at realistic occupancies.
	Occupancy *obs.Histogram

	// Stage-latency distributions (streaming histograms — fixed memory,
	// mergeable, quantiles without retained samples). Latencies are in
	// nanoseconds unless the field name says otherwise.
	MatchLatency  *obs.Histogram // per-request match search (the ACRT samples)
	FlushLatency  *obs.Histogram // batch mode: whole flush wall time
	Phase1Latency *obs.Histogram // batch mode: phase-1 trial fan-out wall time
	RepairLatency *obs.Histogram // batch mode: per-conflict incremental repair
	ReleaseLagMs  *obs.Histogram // ingest: simulated ms, admission to release
	// Sampled shortest-path distance lookup latency, split by cache
	// outcome (set from the oracle stack like the cache counters).
	DistHitLatency  *obs.Histogram
	DistMissLatency *obs.Histogram

	// IngressWait is the distribution of wall time (ns) each admitted
	// request spent in the gateway, admission to handoff.
	IngressWait *obs.Histogram
}

// Counters are the additive measurements. Each is declared once, here,
// with the key it carries in the JSON Snapshot (which embeds Counters), and
// Merge sums every field, so a new counter needs no other line.
type Counters struct {
	Requests   int `json:"requests"`   // requests submitted
	Matched    int `json:"matched"`    // requests assigned to a server
	Rejected   int `json:"rejected"`   // requests no server could satisfy
	Completed  int `json:"completed"`  // trips dropped off
	Violations int `json:"violations"` // service-guarantee violations (must stay 0)

	// ACRTSamples counts the AddACRT calls folded into acrtTotal. Both
	// engine modes attribute search time per request — immediate mode records
	// one sample per Submit, batch mode one per batch item (its share of
	// the phase-1 fan-out plus any conflict-repair retrial) — so a run
	// with consistent accounting has ACRTSamples == Requests.
	ACRTSamples int `json:"acrt_samples"`

	TrialCalls    int `json:"trial_calls"`    // scheduling trials performed
	TrialFailures int `json:"trial_failures"` // trials that found no valid augmented schedule
	OverBudget    int `json:"over_budget"`    // tree trials aborted by the candidate-size budget
	// (the paper's 3 GB cutoff analogue)

	// Batch-window conflict repair (internal/dispatch batch mode): a
	// request whose retained phase-1 candidates were dirtied by an earlier
	// commit in the same flush is repaired by re-trialing only the dirty
	// candidates. RetrialTrialsSaved counts the trial insertions a full
	// re-fan-out would have re-run but incremental repair skipped.
	ConflictsRepaired  int `json:"conflicts_repaired"`
	RetrialTrialsSaved int `json:"retrial_trials_saved"`

	// Service statistics.
	TotalWaitMeters    float64 `json:"total_wait_meters"`    // sum of pickup distances (request -> pickup)
	TotalRideMeters    float64 `json:"total_ride_meters"`    // sum of in-vehicle distances
	TotalShortestLen   float64 `json:"-"`                    // sum of d(s, e) over completed trips
	TotalVehicleMeters float64 `json:"total_vehicle_meters"` // fleet distance traveled

	// Oracle-stack counters (paper §VI's distance LRU, cache.Shared), set
	// from the engine's oracle stack when it exposes them — aggregated
	// across all shards/workers for the dispatch engine. Zero everywhere
	// when the oracle has no cache. There is no path cache: PathCacheHits
	// is always 0 and PathCacheMisses counts the path searches the stack
	// ran; both stay for the benchmark suite's layer model.
	DistCacheHits   uint64 `json:"dist_cache_hits"`
	DistCacheMisses uint64 `json:"dist_cache_misses"`
	PathCacheHits   uint64 `json:"path_cache_hits"`
	PathCacheMisses uint64 `json:"path_cache_misses"`

	// Ingress-gateway counters (internal/ingest), zero when requests are
	// fed directly. Admitted counts requests that cleared admission and
	// were handed to an engine; ShedOverflow counts requests evicted by a
	// full queue under the shed-oldest policy, ShedDeadline requests
	// dropped because their waiting-time window was already blown before
	// they could be dispatched. ShedAdaptive counts requests the
	// adaptive admission controller refused (probabilistic admission
	// shed or wall-SLO handoff shed), and AdmissionTransitions how many
	// times it crossed between the open and shedding states.
	Admitted             int `json:"admitted"`
	ShedOverflow         int `json:"shed_overflow"`
	ShedDeadline         int `json:"shed_deadline"`
	ShedAdaptive         int `json:"shed_adaptive"`
	AdmissionTransitions int `json:"admission_transitions"`
}

// add sums o into c, field by field.
func (c *Counters) add(o *Counters) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		f, g := cv.Field(i), ov.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + g.Int())
		case reflect.Uint64:
			f.SetUint(f.Uint() + g.Uint())
		case reflect.Float64:
			f.SetFloat(f.Float() + g.Float())
		default:
			panic("sim: Counters has a field add cannot sum: " + cv.Type().Field(i).Name)
		}
	}
}

// Peaks are the measurements that merge by keeping the larger value,
// declared once with their JSON Snapshot keys like Counters.
type Peaks struct {
	TreeNodesMax int `json:"tree_nodes_max"` // largest committed kinetic tree observed
	// IngressQueuePeak is the deepest any admission queue ever got, and
	// AdmissionShedPeakPM the highest shed level (per mille) the adaptive
	// admission controller reached.
	IngressQueuePeak    int `json:"ingress_queue_peak"`
	AdmissionShedPeakPM int `json:"admission_peak_shed_pm"`

	// Engine-capacity parameters the run actually used — derived when
	// Config.AutoTune is set, configured otherwise. The engine records
	// them at construction; shard-local metrics leave them zero, and
	// Merge keeps the maximum so aggregation never erases them.
	AutoTuned     bool    `json:"auto_tuned"`        // Config.AutoTune was set
	TunedShards   int     `json:"tuned_shards"`      // fleet partition count
	TunedCellSize float64 `json:"tuned_cell_size_m"` // spatial-index cell size in meters
}

// SetTuning records the capacity parameters the engine resolved at
// construction (shard count, spatial-index cell size, and whether they
// were auto-derived) so snapshots and summaries can report them.
func (m *Metrics) SetTuning(shards int, cellSize float64, auto bool) {
	m.TunedShards = shards
	m.TunedCellSize = cellSize
	m.AutoTuned = auto
}

// NewMetrics returns an empty metrics sink. The dispatch engine gives each
// shard its own and merges them on read.
func NewMetrics() *Metrics {
	return &Metrics{
		artTotal:        make(map[int]time.Duration),
		artCount:        make(map[int]int),
		Occupancy:       obs.NewHistogram(),
		MatchLatency:    obs.NewHistogram(),
		FlushLatency:    obs.NewHistogram(),
		Phase1Latency:   obs.NewHistogram(),
		RepairLatency:   obs.NewHistogram(),
		ReleaseLagMs:    obs.NewHistogram(),
		DistHitLatency:  obs.NewHistogram(),
		DistMissLatency: obs.NewHistogram(),
		IngressWait:     obs.NewHistogram(),
	}
}

// ACRT returns the mean per-request response time.
func (m *Metrics) ACRT() time.Duration {
	if m.Requests == 0 {
		return 0
	}
	return m.acrtTotal / time.Duration(m.Requests)
}

// ART returns the mean per-trial scheduling time for vehicles that had
// `active` requests scheduled, and the number of samples.
func (m *Metrics) ART(active int) (time.Duration, int) {
	c := m.artCount[active]
	if c == 0 {
		return 0, 0
	}
	return m.artTotal[active] / time.Duration(c), c
}

// ARTBuckets returns the sorted list of active-request sizes observed.
func (m *Metrics) ARTBuckets() []int {
	out := make([]int, 0, len(m.artCount))
	for k := range m.artCount {
		out = append(out, k) //vetkit:allow determinism sort.Ints below makes the returned order deterministic
	}
	sort.Ints(out)
	return out
}

// AddACRT adds one request's match-search wall time (the dispatch engine's
// fan-out/reduce latency) to the response-time total.
func (m *Metrics) AddACRT(d time.Duration) {
	m.acrtTotal += d
	m.ACRTSamples++
	m.MatchLatency.Record(d.Nanoseconds())
}

// Merge folds o into m: counters and totals add, ART buckets combine,
// histograms merge (equivalent to recording the union of their samples),
// and peaks take the larger value. Merging per-shard metrics in shard
// order yields deterministic totals for a fixed shard count.
func (m *Metrics) Merge(o *Metrics) {
	m.Counters.add(&o.Counters)
	m.TreeNodesMax = max(m.TreeNodesMax, o.TreeNodesMax)
	m.IngressQueuePeak = max(m.IngressQueuePeak, o.IngressQueuePeak)
	m.AdmissionShedPeakPM = max(m.AdmissionShedPeakPM, o.AdmissionShedPeakPM)
	m.AutoTuned = m.AutoTuned || o.AutoTuned
	m.TunedShards = max(m.TunedShards, o.TunedShards)
	m.TunedCellSize = max(m.TunedCellSize, o.TunedCellSize)
	m.acrtTotal += o.acrtTotal
	for k, d := range o.artTotal {
		m.artTotal[k] += d
	}
	for k, c := range o.artCount {
		m.artCount[k] += c
	}
	m.Occupancy.Merge(o.Occupancy)
	m.MatchLatency.Merge(o.MatchLatency)
	m.FlushLatency.Merge(o.FlushLatency)
	m.Phase1Latency.Merge(o.Phase1Latency)
	m.RepairLatency.Merge(o.RepairLatency)
	m.ReleaseLagMs.Merge(o.ReleaseLagMs)
	m.DistHitLatency.Merge(o.DistHitLatency)
	m.DistMissLatency.Merge(o.DistMissLatency)
	m.IngressWait.Merge(o.IngressWait)
}

// Shed is the total number of requests the ingress gateway dropped, over
// every shed reason.
func (m *Metrics) Shed() int { return m.ShedOverflow + m.ShedDeadline + m.ShedAdaptive }

// AddIngressWait records one admitted request's gateway residence time
// (admission to handoff).
func (m *Metrics) AddIngressWait(d time.Duration) {
	m.IngressWait.Record(d.Nanoseconds())
}

// IngressWaitMean returns the mean gateway residence time over admitted
// requests, or 0 before any handoffs.
func (m *Metrics) IngressWaitMean() time.Duration {
	return time.Duration(m.IngressWait.Mean())
}

// IngressWaitP99 returns the 99th-percentile gateway residence time, or 0
// before any handoffs. Histogram-backed: exact rank, value within the
// documented bucket error (<= 12.5% relative).
func (m *Metrics) IngressWaitP99() time.Duration {
	return time.Duration(m.IngressWait.Quantile(0.99))
}

// SetCacheStats overwrites the cache counters from an oracle stack's
// cumulative counts (cache.Shared's DistStats and PathStats: pathHits is
// always 0 there, pathMisses the path searches run). Set, not add: the
// counters are lifetime totals read from the stack, so re-reading must
// stay idempotent.
func (m *Metrics) SetCacheStats(distHits, distMisses, pathHits, pathMisses uint64) {
	m.DistCacheHits = distHits
	m.DistCacheMisses = distMisses
	m.PathCacheHits = pathHits
	m.PathCacheMisses = pathMisses
}

// SetDistLatency overwrites the sampled distance-lookup latency
// distributions from an oracle stack's lifetime histograms. Set, not add,
// for the same idempotence reason as SetCacheStats.
func (m *Metrics) SetDistLatency(hit, miss *obs.Histogram) {
	m.DistHitLatency.CopyFrom(hit)
	m.DistMissLatency.CopyFrom(miss)
}

// DistCacheHitRate returns the distance-cache hit rate, or 0 before any
// lookups.
func (m *Metrics) DistCacheHitRate() float64 {
	return hitRate(m.DistCacheHits, m.DistCacheMisses)
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// AddART adds one trial's scheduling wall time to the ART bucket of the
// vehicle's scheduled-request count, and counts the trial.
func (m *Metrics) AddART(active int, d time.Duration) {
	m.artTotal[active] += d
	m.artCount[active]++
	m.TrialCalls++
}

// AddOccupancy records one server's peak simultaneous passenger count.
func (m *Metrics) AddOccupancy(peak int) {
	m.Occupancy.Record(int64(peak))
}

// OccupancyStats summarizes per-server peak occupancy as the paper does:
// the maximum across servers, the mean, and the mean over the top 20% most
// filled servers. Max and mean are exact; the top-20% mean uses the
// histogram's bucket midpoints, which are exact for peaks below 16.
func (m *Metrics) OccupancyStats() (max int, mean, top20Mean float64) {
	n := m.Occupancy.Count()
	if n == 0 {
		return 0, 0, 0
	}
	max = int(m.Occupancy.Max())
	mean = float64(m.Occupancy.Sum()) / float64(n)
	top20Mean = m.Occupancy.TopMean((n + 4) / 5) // ceil(20%)
	return max, mean, top20Mean
}

// MeanDetourFactor returns the mean of (actual ride length / shortest
// length) over completed trips, a service-quality indicator.
func (m *Metrics) MeanDetourFactor() float64 {
	if m.TotalShortestLen == 0 {
		return 0
	}
	return m.TotalRideMeters / m.TotalShortestLen
}

// String renders a one-screen summary.
func (m *Metrics) String() string {
	max, mean, top := m.OccupancyStats()
	return fmt.Sprintf(
		"requests=%d matched=%d rejected=%d completed=%d violations=%d acrt=%v trials=%d occupancy(max/mean/top20)=%d/%.2f/%.2f detour=%.3f",
		m.Requests, m.Matched, m.Rejected, m.Completed, m.Violations,
		m.ACRT(), m.TrialCalls, max, mean, top, m.MeanDetourFactor())
}

// Snapshot is the JSON-serializable view of Metrics: its Counters and
// Peaks as declared, plus the values derived from the totals and
// histograms, plus the run's SLO error-budget account.
type Snapshot struct {
	Counters
	Peaks

	ACRTNanos        int64       `json:"acrt_ns"`
	ART              []ARTBucket `json:"art"`
	DetourFactor     float64     `json:"mean_detour_factor"`
	OccupancyMax     int         `json:"occupancy_max"`
	OccupancyMean    float64     `json:"occupancy_mean"`
	OccupancyTop     float64     `json:"occupancy_top20_mean"`
	DistCacheHitRate float64     `json:"dist_cache_hit_rate"`

	IngressWaitMeanNs  int64 `json:"ingress_wait_mean_ns"`
	IngressWaitP99Ns   int64 `json:"ingress_wait_p99_ns"`
	IngressWaitSamples int   `json:"ingress_wait_samples"`

	// The gateway's error-budget account, read from its SLOTracker (all
	// zero when no tracker ran).
	SLOGood           int64   `json:"slo_good"`
	SLOBad            int64   `json:"slo_bad"`
	SLOObjective      float64 `json:"slo_objective"`
	SLOBudgetConsumed float64 `json:"slo_budget_consumed"`

	// Stage-latency digests (count/mean/p50/p90/p99/max) from the
	// streaming histograms.
	MatchLatencyNs  obs.Summary `json:"match_latency_ns"`
	FlushLatencyNs  obs.Summary `json:"flush_latency_ns"`
	Phase1LatencyNs obs.Summary `json:"phase1_latency_ns"`
	RepairLatencyNs obs.Summary `json:"repair_latency_ns"`
	ReleaseLagMs    obs.Summary `json:"release_lag_ms"`
	DistHitNs       obs.Summary `json:"dist_hit_latency_ns"`
	DistMissNs      obs.Summary `json:"dist_miss_latency_ns"`
}

// ARTBucket is one ART histogram bucket in a Snapshot.
type ARTBucket struct {
	Requests int   `json:"requests"`
	MeanNs   int64 `json:"mean_ns"`
	Samples  int   `json:"samples"`
}

// Snapshot converts the metrics into their serializable form, taking the
// SLO account from slo (nil when the run had no gateway).
func (m *Metrics) Snapshot(slo *obs.SLOTracker) Snapshot {
	max, mean, top := m.OccupancyStats()
	budget := slo.Snapshot()
	s := Snapshot{
		Counters:         m.Counters,
		Peaks:            m.Peaks,
		ACRTNanos:        m.ACRT().Nanoseconds(),
		DetourFactor:     m.MeanDetourFactor(),
		OccupancyMax:     max,
		OccupancyMean:    mean,
		OccupancyTop:     top,
		DistCacheHitRate: m.DistCacheHitRate(),

		IngressWaitMeanNs:  m.IngressWaitMean().Nanoseconds(),
		IngressWaitP99Ns:   m.IngressWaitP99().Nanoseconds(),
		IngressWaitSamples: int(m.IngressWait.Count()),

		SLOGood:           budget.Good,
		SLOBad:            budget.Bad,
		SLOObjective:      budget.Objective,
		SLOBudgetConsumed: budget.BudgetConsumed,

		MatchLatencyNs:  m.MatchLatency.Summary(),
		FlushLatencyNs:  m.FlushLatency.Summary(),
		Phase1LatencyNs: m.Phase1Latency.Summary(),
		RepairLatencyNs: m.RepairLatency.Summary(),
		ReleaseLagMs:    m.ReleaseLagMs.Summary(),
		DistHitNs:       m.DistHitLatency.Summary(),
		DistMissNs:      m.DistMissLatency.Summary(),
	}
	for _, b := range m.ARTBuckets() {
		d, n := m.ART(b)
		s.ART = append(s.ART, ARTBucket{Requests: b, MeanNs: d.Nanoseconds(), Samples: n})
	}
	return s
}
