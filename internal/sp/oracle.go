// Package sp provides shortest-path engines over a roadnet.Graph: plain
// Dijkstra, bidirectional Dijkstra, A*, ALT, arc flags, an all-pairs matrix
// (for testing), and a hub-labeling index (pruned landmark labeling), which
// is the "state-of-art hub-labeling algorithm" the paper implements for its
// evaluation (§VI).
//
// There is one label state (labels) and one one-sided label-setting loop
// (searcher.run, search.go). Dijkstra, A*, ALT, arc flags and the pruned
// searches of the hub-label build are that loop with a different lower
// bound, edge filter or settle callback; Bidirectional runs its own
// two-sided loop over two of the same label states.
//
// All engines implement the Oracle interface consumed by the scheduling
// algorithms in internal/core. Distances are in meters, matching
// roadnet.Graph edge weights; unreachable pairs report +Inf.
package sp

import (
	"math"

	"repro/internal/roadnet"
)

// Oracle answers shortest-path queries on a road network.
//
// Thread-safety taxonomy. Every oracle in the system falls into one of two
// documented classes:
//
//   - Per-goroutine engines (Dijkstra, Bidirectional, AStar, the engines
//     an ALT or ArcFlags index hands out, cache.SharedWorker): NOT safe for
//     concurrent use. They reuse their label state across queries, which
//     is what makes the simulator's millions of queries cheap. Every
//     concurrent user needs its own instance.
//   - SharedOracle implementations (Matrix, HubLabels, cache.Shared):
//     safe for concurrent use by any number of goroutines; see
//     SharedOracle for the exact guarantee.
//
// A WorkerSource bridges the two classes: it is shared state that hands
// out per-goroutine facades, so a worker pool can amortize one cache, or
// one preprocessed index, across all workers while keeping each worker's
// hot path single-threaded. The preprocessed backends are split along that
// line: ALT and ArcFlags are immutable indexes (landmark tables, arc
// flags) built once, and their NewWorkerOracle returns label state that
// searches over the index.
//
// The taxonomy is machine-enforced: the oracletaxonomy pass in cmd/vetkit
// flags per-goroutine oracles crossing a goroutine boundary, factories
// that hand out one captured instance, and dispatch fields typed as plain
// Oracle. See the "Invariants" table in the README for the full rule set
// and the //vetkit:allow escape hatch.
type Oracle interface {
	// Dist returns the shortest-path cost from u to v in meters,
	// or +Inf if v is unreachable from u.
	Dist(u, v roadnet.VertexID) float64
	// Path returns the vertex sequence of a shortest path from u to v
	// (inclusive of both endpoints), or nil if unreachable.
	// Path(u, u) returns [u].
	Path(u, v roadnet.VertexID) []roadnet.VertexID
}

// SharedOracle is an Oracle that is additionally safe for concurrent use:
// Dist and Path may be called from any number of goroutines with no
// external locking. Dist must be wait-free or near it (it is the hot
// query); Path may serialize internally, since path reconstruction is
// orders of magnitude rarer (the paper caches ten million distances but
// only ten thousand paths, §VI).
//
// Implementations: Matrix and HubLabels (immutable distance structures,
// mutex-serialized path engines) and cache.Shared (striped concurrent
// distance cache over pooled engines).
type SharedOracle interface {
	Oracle
	// ConcurrencySafe is a compile-time marker carrying the guarantee
	// above; it does nothing at runtime.
	ConcurrencySafe()
}

// WorkerSource is implemented by what hands out per-goroutine Oracle
// facades over shared concurrency-safe state: cache.Shared (one distance
// cache) and the ALT and ArcFlags indexes (one round of preprocessing).
// Each facade is itself a per-goroutine engine — its hot path touches
// worker-private buffers and caches — but all facades consult the same
// shared state, so work done once is visible to all. The sharded dispatch
// engine builds one facade per shard from a WorkerSource instead of
// requiring a factory of cold private oracles.
type WorkerSource interface {
	// NewWorkerOracle returns a facade for the exclusive use of one
	// goroutine. Facades may be created concurrently.
	NewWorkerOracle() Oracle
}

// Inf is the distance reported for unreachable vertex pairs.
var Inf = math.Inf(1)

// pathCost sums the edge weights along a vertex sequence; used by tests and
// by schedule validation helpers.
func pathCost(g *roadnet.Graph, path []roadnet.VertexID) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		w, ok := g.EdgeWeight(path[i], path[i+1])
		if !ok {
			return Inf
		}
		total += w
	}
	return total
}
