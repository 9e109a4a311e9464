package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// Algorithm selects the kinetic-tree variant a fleet runs.
type Algorithm int

// The kinetic-tree variants of paper §VI-B. The §VI-A baselines (brute
// force, branch-and-bound, MIP) are not vehicle kinds: internal/exp times
// internal/core's schedulers on instances captured from tree runs
// (Config.Capture).
const (
	AlgoTreeBasic Algorithm = iota
	AlgoTreeSlack
	AlgoTreeHotspot
)

func (a Algorithm) String() string {
	switch a {
	case AlgoTreeBasic:
		return "ktree"
	case AlgoTreeSlack:
		return "ktree-slack"
	case AlgoTreeHotspot:
		return "ktree-hotspot"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Request is one trip request submitted to the system. WaitSeconds and
// Epsilon, when positive, override the fleet-wide constraints for this
// request (the paper's individualized-constraint generalization, §I-A:
// "our proposed algorithms can be easily generalized to individualized
// waiting time and service constraints").
type Request struct {
	ID      int64
	Time    float64 // seconds since simulation start
	Pickup  roadnet.VertexID
	Dropoff roadnet.VertexID

	WaitSeconds float64 // per-request waiting constraint; 0 = fleet default
	Epsilon     float64 // per-request service constraint; 0 = fleet default
}

// Config parameterizes a simulation run. Zero values select the defaults
// noted per field.
type Config struct {
	Graph  *roadnet.Graph
	Oracle sp.Oracle

	Servers  int
	Capacity int // max simultaneous passengers; 0 = unlimited

	WaitSeconds float64 // waiting-time constraint w (default 600 = 10 min)
	Epsilon     float64 // service constraint ε (default 0.2 = 20%)

	Algorithm    Algorithm
	HotspotTheta float64 // meters (AlgoTreeHotspot; default 300)
	// LazyInvalidation defers kinetic-tree pruning on movement to the
	// next request (paper §IV-A).
	LazyInvalidation bool
	MaxTreeNodes     int // candidate-tree size cap; 0 = 200000

	ReportInterval float64 // seconds between vehicle position reports (default 30)
	CellSize       float64 // spatial-index cell size in meters (default 1000)

	// AutoTune derives the capacity knobs left unset from the fleet size
	// and graph extent instead of using the static defaults: CellSize via
	// DeriveCellSize when zero, and the dispatch engine's shard count via
	// DeriveShards when Shards is zero. Explicitly set values always win.
	// Tuning never changes matching decisions — the grid's candidate
	// superset is exactly filtered and shard count is equivalence-proven
	// — only throughput. The values actually used are surfaced in
	// Metrics (TunedShards, TunedCellSize).
	AutoTune bool

	Seed int64

	// Workers, Shards, and BatchWindow shape the dispatch engine
	// (internal/dispatch): Workers sizes its trial worker pool (default 1:
	// the shards run inline on the caller, no pool), Shards partitions the
	// fleet (default: one shard per worker), and BatchWindow, when
	// positive, collects requests for that many seconds and matches them
	// as a batch. Workers and Shards change throughput only — matching
	// decisions are identical at every count.
	Workers     int
	Shards      int
	BatchWindow float64

	// Trace, when non-nil, captures per-request lifecycle events
	// (trialed, matched, rejected, completed) into ring buffers — one per
	// engine goroutine — drainable to JSONL. Tracing changes no control
	// flow, so traced runs produce bit-identical assignments.
	Trace *obs.Tracer
	// Live, when non-nil, receives atomically readable progress counters
	// that the interval reporter and /metrics endpoint may poll mid-run.
	Live *obs.Live
	// Faults, when non-nil, wires the deterministic fault-injection
	// hooks (internal/faults) into the engine's worker seam: per-shard
	// fan-out stalls and slowed trial insertions. Injected worker
	// faults are latency-only, so assignments stay bit-identical to a
	// fault-free run; a nil injector (the default) is proven
	// bit-identical to an unhooked engine by the equivalence tests.
	Faults *faults.Injector
	// Capture, when non-nil, receives the rescheduling instance of every
	// trial that gets past the Euclidean pre-screen and whose trip state
	// builds: the vehicle's origin, odometer and capacity, its active trips
	// and, last, the request's trip. Each instance is freshly allocated and
	// the callee's to keep. It is called on the goroutine running the
	// trial — a shard's worker when Workers > 1 — so a callee shared across
	// shards must synchronize. Capture only observes: it changes no
	// assignment.
	Capture func(*core.Instance)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.WaitSeconds == 0 {
		out.WaitSeconds = 600
	}
	if out.Epsilon == 0 {
		out.Epsilon = 0.2
	}
	if out.HotspotTheta == 0 {
		out.HotspotTheta = 300
	}
	if out.MaxTreeNodes == 0 {
		out.MaxTreeNodes = 200000
	}
	if out.ReportInterval == 0 {
		out.ReportInterval = 30
	}
	if out.CellSize == 0 {
		if out.AutoTune {
			out.CellSize = DeriveCellSize(out.Graph, out.Servers)
		} else {
			out.CellSize = DefaultCellSize
		}
	}
	return out
}
