package cache

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// Default capacities from the paper (§VI): "one storing up to ten million
// shortest distances and the other storing up to ten thousand shortest paths
// (separate caches are used because more distances can be stored in memory,
// and shortest distance is needed more often than shortest path)".
const (
	DefaultDistEntries = 10_000_000
	DefaultPathEntries = 10_000
)

// Shared is the fleet-wide oracle stack: one concurrency-safe striped
// distance cache consulted by every worker in the system, combined with
// per-worker path caches and per-worker inner engines behind the usual
// Dist/Path facade.
//
// The layering (engine → shared distance cache → per-worker path cache):
//
//	           ┌────────────────────────────────┐
//	           │ Shared striped distance cache  │  one per fleet
//	           └──────┬──────────┬──────────────┘
//	                  │          │        miss ⇒ compute on the
//	┌─────────────────┴──┐  ┌────┴───────────────┐ caller's engine,
//	│ Worker facade 0    │  │ Worker facade 1 …  │ publish to all
//	│ path LRU + engine  │  │ path LRU + engine  │
//	└────────────────────┘  └────────────────────┘
//
// Distances are what the matching loop asks for millions of times (the
// paper sizes its caches 10M distances vs 10K paths, §VI), and a distance
// learned by one dispatch shard — d(pickup, dropoff), say — is exactly the
// distance every other shard will need for the same trip. Sharing the
// distance cache recovers the cross-shard hit rate that private per-shard
// caches lose, without serializing the hot path: the cache is striped, and
// each worker's engine and path cache stay private.
//
// Shared itself implements sp.Oracle and sp.SharedOracle — Dist and Path
// may be called from any goroutine, with misses computed on engines drawn
// from an internal pool — so it can drop in wherever a single oracle is
// expected (a one-worker engine, tooling). Hot worker pools should
// instead hold one NewWorker facade per goroutine, which adds a private
// lock-free path cache and a dedicated engine.
type Shared struct {
	newEngine func() sp.Oracle
	n         uint64
	dists     *StripedLRU[float64]
	paths     *StripedLRU[[]roadnet.VertexID] // for direct Shared.Path calls
	pathCap   int
	pool      sync.Pool // engines for direct Dist/Path calls

	mu      sync.Mutex
	workers []*SharedWorker // registered facades, for stats aggregation
}

// NewShared builds a shared oracle stack for a graph with n vertices.
// newEngine must return a fresh inner engine on every call (engines are
// per-goroutine; see the sp.Oracle taxonomy). distEntries sizes the shared
// striped distance cache, pathEntries each path cache, and stripes the
// stripe count (0 = DefaultStripes). Capacities below 1 are clamped to 1.
func NewShared(newEngine func() sp.Oracle, n, distEntries, pathEntries, stripes int) *Shared {
	if pathEntries < 1 {
		pathEntries = 1
	}
	s := &Shared{
		newEngine: newEngine,
		n:         uint64(n),
		dists:     NewStripedLRU[float64](distEntries, stripes),
		paths:     NewStripedLRU[[]roadnet.VertexID](pathEntries, stripes),
		pathCap:   pathEntries,
	}
	s.pool.New = func() any { return newEngine() }
	return s
}

// NewSharedDefault builds a shared stack with the paper's default
// capacities and the default stripe count.
func NewSharedDefault(newEngine func() sp.Oracle, n int) *Shared {
	return NewShared(newEngine, n, DefaultDistEntries, DefaultPathEntries, 0)
}

func (s *Shared) key(u, v roadnet.VertexID) uint64 {
	return uint64(u)*s.n + uint64(v)
}

// sharedDist is the one distance lookup path: consult the shared striped
// cache, compute on the supplied engine on a miss, and publish the result
// under both directions (the graph is undirected, so cost is symmetric).
// The second return reports whether the lookup was served from the cache
// (u == v counts as a hit; it never reaches the cache).
func (s *Shared) sharedDist(engine sp.Oracle, u, v roadnet.VertexID) (float64, bool) {
	if u == v {
		return 0, true
	}
	k := s.key(u, v)
	if d, ok := s.dists.Get(k); ok {
		return d, true
	}
	d := engine.Dist(u, v)
	s.dists.Put(k, d)
	s.dists.Put(s.key(v, u), d)
	return d, false
}

// Dist returns the shortest-path cost from u to v, consulting the shared
// distance cache first and computing misses on a pooled engine. Safe for
// concurrent use. Direct calls are not latency-sampled (sampler state is
// single-writer); hot loops go through SharedWorker facades, which are.
func (s *Shared) Dist(u, v roadnet.VertexID) float64 {
	engine := s.pool.Get().(sp.Oracle)
	d, _ := s.sharedDist(engine, u, v)
	s.pool.Put(engine)
	return d
}

// Path returns a shortest path from u to v, consulting the stack's own
// striped path cache first. Safe for concurrent use. The returned slice is
// shared with the cache and must not be modified.
func (s *Shared) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	k := s.key(u, v)
	if p, ok := s.paths.Get(k); ok {
		return p
	}
	engine := s.pool.Get().(sp.Oracle)
	p := engine.Path(u, v)
	s.pool.Put(engine)
	s.paths.Put(k, p)
	// The graph is undirected, so the reverse of a shortest path is a
	// shortest path (and an unreachable pair is unreachable both ways):
	// prime the opposite direction as sharedDist does.
	s.paths.Put(s.key(v, u), reversePath(p))
	return p
}

// reversePath returns a reversed copy of p; nil (unreachable) stays nil.
func reversePath(p []roadnet.VertexID) []roadnet.VertexID {
	if p == nil {
		return nil
	}
	r := make([]roadnet.VertexID, len(p))
	for i, v := range p {
		r[len(p)-1-i] = v
	}
	return r
}

// ConcurrencySafe marks Shared as an sp.SharedOracle.
func (s *Shared) ConcurrencySafe() {}

// NewWorker returns a facade for the exclusive use of one goroutine: its
// Dist consults the shared striped distance cache (publishing misses for
// every other worker), while Path runs against a private path cache and a
// private inner engine. Facades may be created concurrently.
func (s *Shared) NewWorker() *SharedWorker {
	w := &SharedWorker{
		shared:  s,
		engine:  s.newEngine(),
		paths:   NewLRU[[]roadnet.VertexID](s.pathCap),
		sampler: newDistSampler(),
	}
	s.mu.Lock()
	s.workers = append(s.workers, w)
	s.mu.Unlock()
	return w
}

// NewWorkerOracle implements sp.WorkerSource.
func (s *Shared) NewWorkerOracle() sp.Oracle { return s.NewWorker() }

// DistStats returns hit/miss counts of the shared distance cache,
// aggregated losslessly across its stripes.
func (s *Shared) DistStats() (hits, misses uint64) { return s.dists.Stats() }

// PathStats returns hit/miss counts summed over the stack's own path cache
// and every worker facade's private path cache. Worker path caches are
// single-threaded, so call this only while the workers are quiescent (the
// dispatch engine reads stats between fan-outs, from the driving
// goroutine).
func (s *Shared) PathStats() (hits, misses uint64) {
	hits, misses = s.paths.Stats()
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	for _, w := range workers {
		h, m := w.paths.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// DistLatency returns fresh histograms merging the sampled distance-lookup
// latency of every worker facade, split by shared-cache outcome. Worker
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
// goroutines (its inner engine and path cache are private and unlocked),
// but all facades of one stack read and feed the same distance cache.
type SharedWorker struct {
	shared  *Shared
	engine  sp.Oracle
	paths   *LRU[[]roadnet.VertexID]
	sampler *distSampler
}

// Dist returns the shortest-path cost from u to v via the shared distance
// cache, computing misses on this worker's private engine.
func (w *SharedWorker) Dist(u, v roadnet.VertexID) float64 {
	start := w.sampler.start()
	d, hit := w.shared.sharedDist(w.engine, u, v)
	w.sampler.record(start, hit)
	return d
}

// Path returns a shortest path from u to v via this worker's private path
// cache, priming the reverse direction as sharedDist does. The returned
// slice is shared with the cache and must not be modified.
func (w *SharedWorker) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	k := w.shared.key(u, v)
	if p, ok := w.paths.Get(k); ok {
		return p
	}
	p := w.engine.Path(u, v)
	w.paths.Put(k, p)
	w.paths.Put(w.shared.key(v, u), reversePath(p))
	return p
}

// Shared returns the stack this facade belongs to, which carries the
// aggregate cache statistics.
func (w *SharedWorker) Shared() *Shared { return w.shared }
