package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// defaultDistEntries is the paper's bound on remembered distances (§VI):
// "one storing up to ten million shortest distances". It is the eviction
// limit, not a reservation: a stack costs what it currently holds.
const defaultDistEntries = 10_000_000

// Shared is the fleet-wide oracle stack: one concurrency-safe, symmetric
// distance table consulted by every worker in the system, in front of
// per-worker inner engines, behind the usual Dist/Path facade.
//
//	           ┌──────────────────────────────────┐
//	           │ Shared symmetric distance table  │  one per fleet
//	           └──────┬──────────┬────────────────┘
//	                  │          │        miss ⇒ compute on the
//	┌─────────────────┴──┐  ┌────┴───────────────┐ caller's engine,
//	│ Worker facade 0    │  │ Worker facade 1 …  │ publish to all
//	│ engine             │  │ engine             │
//	└────────────────────┘  └────────────────────┘
//
// Distances are what the matching loop asks for millions of times, and a
// distance learned by one dispatch shard — d(pickup, dropoff), say — is
// exactly the distance every other shard will need for the same trip.
// Sharing the table recovers the cross-shard hit rate that private
// per-shard caches lose, without serializing the hot path: the table is
// striped, and each worker's engine stays private. The graph is
// undirected, so a pair is remembered once, under (min, max), and serves
// both directions. Path is not cached at all: it goes straight to an engine.
//
// Shared itself implements sp.Oracle and sp.SharedOracle — Dist and Path
// may be called from any goroutine, with misses computed on engines drawn
// from an internal pool — so it can drop in wherever a single oracle is
// expected (a one-worker engine, tooling). Hot worker pools should
// instead hold one NewWorker facade per goroutine, which adds a dedicated
// engine and the latency sampler.
type Shared struct {
	newEngine func() sp.Oracle
	n         uint64
	dists     *table
	pool      sync.Pool // engines for direct Dist/Path calls

	pathSearches atomic.Uint64 // run by direct Path calls

	mu      sync.Mutex
	workers []*SharedWorker // registered facades, for stats aggregation
}

// NewShared builds a shared oracle stack for a graph with n vertices.
// newEngine must return a fresh inner engine on every call (engines are
// per-goroutine; see the sp.Oracle taxonomy). distEntries bounds the
// distance table (below 1 is clamped to 1) and stripes is its stripe count
// (0 = the default). pathEntries is accepted and ignored: there is no path
// cache, and the parameter stays only because benchmark/probes.go:98,
// frozen, passes five arguments. Everything else calls NewSharedDefault.
func NewShared(newEngine func() sp.Oracle, n, distEntries, pathEntries, stripes int) *Shared {
	s := &Shared{
		newEngine: newEngine,
		n:         uint64(n),
		dists:     newTable(distEntries, stripes),
	}
	s.pool.New = func() any { return newEngine() }
	return s
}

// NewSharedDefault builds a shared stack bounded at the paper's ten million
// distances, with the default stripe count.
func NewSharedDefault(newEngine func() sp.Oracle, n int) *Shared {
	return NewShared(newEngine, n, defaultDistEntries, 0, 0)
}

// key returns the table key of the unordered pair {u, v}.
func (s *Shared) key(u, v roadnet.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*s.n + uint64(v)
}

// sharedDist is the one distance lookup path: consult the shared table
// under the pair's unordered key, and on a miss compute on the supplied
// engine and publish the result. Distances are exact, so the direction a
// miss is computed in does not change the stored bits. The second return
// reports whether the lookup was served from the table (u == v counts as a
// hit; it never reaches the table).
func (s *Shared) sharedDist(engine sp.Oracle, u, v roadnet.VertexID) (float64, bool) {
	if u == v {
		return 0, true
	}
	k := s.key(u, v)
	if d, ok := s.dists.get(k, true); ok {
		return d, true
	}
	d := engine.Dist(u, v)
	s.dists.put(k, d)
	return d, false
}

// probe is sharedDist without the search: the held distance, or ok=false
// with nothing counted.
func (s *Shared) probe(u, v roadnet.VertexID) (float64, bool) {
	if u == v {
		return 0, true
	}
	return s.dists.get(s.key(u, v), false)
}

// Dist returns the shortest-path cost from u to v, consulting the shared
// distance table first and computing misses on a pooled engine. Safe for
// concurrent use. Direct calls are not latency-sampled (sampler state is
// single-writer); hot loops go through SharedWorker facades, which are.
func (s *Shared) Dist(u, v roadnet.VertexID) float64 {
	engine := s.pool.Get().(sp.Oracle)
	d, _ := s.sharedDist(engine, u, v)
	s.pool.Put(engine)
	return d
}

// Path returns a shortest path from u to v, searched on a pooled engine.
// Safe for concurrent use.
func (s *Shared) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	s.pathSearches.Add(1)
	engine := s.pool.Get().(sp.Oracle)
	p := engine.Path(u, v)
	s.pool.Put(engine)
	return p
}

// ConcurrencySafe marks Shared as an sp.SharedOracle.
func (s *Shared) ConcurrencySafe() {}

// NewWorker returns a facade for the exclusive use of one goroutine: its
// Dist consults the shared distance table (publishing misses for every
// other worker) and computes on a private inner engine, which also answers
// Path. Facades may be created concurrently.
func (s *Shared) NewWorker() *SharedWorker {
	w := &SharedWorker{
		shared:  s,
		engine:  s.newEngine(),
		sampler: newDistSampler(),
	}
	s.mu.Lock()
	s.workers = append(s.workers, w)
	s.mu.Unlock()
	return w
}

// NewWorkerOracle implements sp.WorkerSource.
func (s *Shared) NewWorkerOracle() sp.Oracle { return s.NewWorker() }

// DistStats returns hit/miss counts of the shared distance table,
// aggregated losslessly across its stripes.
func (s *Shared) DistStats() (hits, misses uint64) { return s.dists.stats() }

// PathStats keeps the shape of the path cache that used to sit here, for
// sim.Metrics and the benchmark suite's layer model: hits is always 0 and
// misses is the number of path searches run, by direct Path calls and by
// every worker facade. Worker counters are single-writer, so call this
// only while the workers are quiescent (the dispatch engine reads stats
// between fan-outs, from the driving goroutine).
func (s *Shared) PathStats() (hits, misses uint64) {
	misses = s.pathSearches.Load()
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	for _, w := range workers {
		misses += w.pathSearches
	}
	return 0, misses
}

// DistLatency returns fresh histograms merging the sampled distance-lookup
// latency of every worker facade, split by shared-table outcome. Worker
// samplers are single-threaded, so — like PathStats — call this only while
// the workers are quiescent.
func (s *Shared) DistLatency() (hit, miss *obs.Histogram) {
	hit, miss = obs.NewHistogram(), obs.NewHistogram()
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	for _, w := range workers {
		hit.Merge(w.sampler.hit)
		miss.Merge(w.sampler.miss)
	}
	return hit, miss
}

// SharedWorker is a per-goroutine facade over a Shared stack. It implements
// sp.Oracle; like the plain engines it must not be shared across
// goroutines (its inner engine is private and unlocked), but all facades
// of one stack read and feed the same distance table.
type SharedWorker struct {
	shared       *Shared
	engine       sp.Oracle
	pathSearches uint64
	sampler      *distSampler
}

// Dist returns the shortest-path cost from u to v via the shared distance
// table, computing misses on this worker's private engine.
func (w *SharedWorker) Dist(u, v roadnet.VertexID) float64 {
	start := w.sampler.start()
	d, hit := w.shared.sharedDist(w.engine, u, v)
	w.sampler.record(start, hit)
	return d
}

// Probe returns the distance from u to v if the shared table holds it,
// without searching. A held pair counts as a hit and is latency-sampled
// exactly like Dist. A pair not held counts as nothing, because the caller
// may settle it without the distance (the kinetic tree's landmark bound);
// if it does need it, its Dist call is the miss.
func (w *SharedWorker) Probe(u, v roadnet.VertexID) (float64, bool) {
	start := w.sampler.start()
	d, ok := w.shared.probe(u, v)
	if ok {
		w.sampler.record(start, true)
	}
	return d, ok
}

// Path returns a shortest path from u to v, searched on this worker's
// private engine.
func (w *SharedWorker) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	w.pathSearches++
	return w.engine.Path(u, v)
}

// Shared returns the stack this facade belongs to, which carries the
// aggregate cache statistics.
func (w *SharedWorker) Shared() *Shared { return w.shared }
