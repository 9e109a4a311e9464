package cache

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// The stack's compile-time contracts: Shared is a concurrency-safe oracle
// and a worker source; the facades are plain per-goroutine oracles.
var (
	_ sp.SharedOracle = (*Shared)(nil)
	_ sp.WorkerSource = (*Shared)(nil)
	_ sp.Oracle       = (*SharedWorker)(nil)
	_ sp.SharedOracle = (*sp.Matrix)(nil)
	_ sp.SharedOracle = (*sp.HubLabels)(nil)
)

// testGraph is a small connected grid for cache tests.
func testGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 8, Cols: 8, Spacing: 500, Jitter: 0.1, WeightVar: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

// countingOracle counts how many Dist/Path calls reach the inner engine.
type countingOracle struct {
	inner        sp.Oracle
	dists, paths int
}

func (c *countingOracle) Dist(u, v roadnet.VertexID) float64 {
	c.dists++
	return c.inner.Dist(u, v)
}

func (c *countingOracle) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	c.paths++
	return c.inner.Path(u, v)
}

// countingEngines is a NewShared engine factory whose engines are fresh
// countingOracles; paths and dists total the queries that reached any of
// them. Single-goroutine tests only.
type countingEngines struct {
	newInner func() sp.Oracle
	engines  []*countingOracle
}

func (c *countingEngines) new() sp.Oracle {
	e := &countingOracle{inner: c.newInner()}
	c.engines = append(c.engines, e)
	return e
}

func (c *countingEngines) dists() (n int) {
	for _, e := range c.engines {
		n += e.dists
	}
	return n
}

func (c *countingEngines) paths() (n int) {
	for _, e := range c.engines {
		n += e.paths
	}
	return n
}

// TestSharedCrossWorkerHits: a distance computed through one worker facade
// must be a cache hit for every other facade — the whole point of the
// shared stack.
func TestSharedCrossWorkerHits(t *testing.T) {
	g := testGraph(t)
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewBidirectional(g) }}
	s := NewSharedDefault(inner.new, g.N())

	a, b := s.NewWorker(), s.NewWorker()
	want := a.Dist(0, 20)
	if got := b.Dist(0, 20); got != want {
		t.Fatalf("worker B Dist = %v, worker A computed %v", got, want)
	}
	if inner.dists() != 1 {
		t.Fatalf("inner engines ran %d distance queries, want 1 (the rest served from the shared table)", inner.dists())
	}
	if hits, misses := s.DistStats(); misses != 1 || hits != 1 {
		t.Fatalf("DistStats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestSharedPairIsOneEntry: the graph is undirected, so Dist(u,v) then
// Dist(v,u) runs one engine search and leaves one entry, through a facade
// and through the stack itself.
func TestSharedPairIsOneEntry(t *testing.T) {
	g := testGraph(t)
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewBidirectional(g) }}
	s := NewSharedDefault(inner.new, g.N())
	w := s.NewWorker()

	want := w.Dist(3, 41)
	for _, got := range []float64{w.Dist(41, 3), s.Dist(41, 3), s.Dist(3, 41)} {
		if got != want {
			t.Fatalf("Dist of the same pair = %v, first answer was %v", got, want)
		}
	}
	if inner.dists() != 1 {
		t.Fatalf("engines ran %d searches for one pair, want 1", inner.dists())
	}
	if n := s.dists.size(); n != 1 {
		t.Fatalf("table holds %d entries for one pair, want 1", n)
	}
	if hits, misses := s.DistStats(); hits != 3 || misses != 1 {
		t.Fatalf("DistStats = (%d hits, %d misses), want (3, 1)", hits, misses)
	}
}

// TestSharedBoundHolds: the bound is the eviction limit. After three times
// the bound in distinct pairs the table has never exceeded it, and — LRU
// per stripe — the most recent pair is still a hit while the oldest ones
// are not all still there.
func TestSharedBoundHolds(t *testing.T) {
	g := testGraph(t)
	const bound = 64
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewBidirectional(g) }}
	s := NewShared(inner.new, g.N(), bound, 0, 4)
	w := s.NewWorker()

	pairs := distinctPairs(t, g, 3*bound)
	for _, p := range pairs {
		w.Dist(p[0], p[1])
		if n := s.dists.size(); n > bound {
			t.Fatalf("table holds %d entries, bound is %d", n, bound)
		}
	}
	if inner.dists() != len(pairs) {
		t.Fatalf("engines ran %d searches for %d first-touch pairs", inner.dists(), len(pairs))
	}
	if err := s.dists.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	last := pairs[len(pairs)-1]
	w.Dist(last[1], last[0])
	if inner.dists() != len(pairs) {
		t.Fatal("the most recent pair was evicted")
	}
	for _, p := range pairs[:bound] {
		w.Dist(p[0], p[1])
	}
	if inner.dists() == len(pairs) {
		t.Fatalf("all of the oldest %d pairs survived %d later ones in a table of %d", bound, 2*bound, bound)
	}
}

// TestSharedFreshStackIsSmall: a stack costs what it holds. The paper's
// ten-million-entry bound used to be paid up front (≈300 MiB of map before
// the first query); a fresh default stack must add well under 1 MiB.
func TestSharedFreshStackIsSmall(t *testing.T) {
	g := testGraph(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())
	w := s.NewWorker()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("a fresh default stack added %d bytes of live heap, want < 1 MiB", grew)
	}
	if d := w.Dist(0, 63); d <= 0 || d == sp.Inf {
		t.Fatalf("Dist(0,63) = %v", d)
	}
}

// TestSharedDirectFacade: Shared itself answers Dist/Path (pooled engines)
// and agrees with a plain engine.
func TestSharedDirectFacade(t *testing.T) {
	g := testGraph(t)
	s := NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())
	ref := sp.NewDijkstra(g)
	for _, pair := range [][2]roadnet.VertexID{{0, 63}, {5, 40}, {7, 7}} {
		u, v := pair[0], pair[1]
		if got, want := s.Dist(u, v), ref.Dist(u, v); got != want {
			t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, got, want)
		}
		if got, want := s.Path(u, v), ref.Path(u, v); !slices.Equal(got, want) {
			t.Fatalf("Path(%d,%d) = %v, the engine says %v", u, v, got, want)
		}
	}
}

// TestSharedConcurrent: facades on separate goroutines plus direct Shared
// queries, under -race. Every worker must observe identical distances.
func TestSharedConcurrent(t *testing.T) {
	g := testGraph(t)
	s := NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())
	ref := sp.NewDijkstra(g)
	n := roadnet.VertexID(int32(g.N()))

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w := s.NewWorker()
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			state := seed
			for q := 0; q < 300; q++ {
				state = state*6364136223846793005 + 1442695040888963407
				u := roadnet.VertexID(uint64(state>>16) % uint64(n))
				v := roadnet.VertexID(uint64(state>>40) % uint64(n))
				w.Dist(u, v)
				if q%29 == 0 {
					w.Path(u, v)
				}
				if q%13 == 0 {
					s.Dist(v, u) // direct facade racing the workers
				}
			}
			errs <- nil
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The table must hold exact values: spot-check against Dijkstra.
	for _, pair := range [][2]roadnet.VertexID{{1, 50}, {10, 33}} {
		u, v := pair[0], pair[1]
		if got, want := s.Dist(u, v), ref.Dist(u, v); got != want {
			t.Fatalf("post-stress Dist(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
	if h, m := s.DistStats(); h+m == 0 {
		t.Fatal("no distance lookups recorded")
	}
}

func TestCachedOracleCorrectAndCaching(t *testing.T) {
	g, err := roadnet.Grid(roadnet.GridOptions{Rows: 8, Cols: 8, Spacing: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewDijkstra(g) }}
	s := NewShared(inner.new, g.N(), 1000, 0, 0)
	o := s.NewWorker()
	ref := sp.NewDijkstra(g)

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		u := roadnet.VertexID(rng.Intn(g.N()))
		v := roadnet.VertexID(rng.Intn(g.N()))
		if got, want := o.Dist(u, v), ref.Dist(u, v); got != want {
			t.Fatalf("cached Dist(%d,%d)=%v want %v", u, v, got, want)
		}
	}
	if inner.dists() >= 2000 {
		t.Fatalf("cache ineffective: %d inner calls for 2000 queries", inner.dists())
	}
	hits, misses := s.DistStats()
	if hits == 0 || hits+misses == 0 {
		t.Fatalf("no cache hits recorded (h=%d m=%d)", hits, misses)
	}
}

// TestCachedOraclePaths: Path is a pass-through. Every call with u != v is
// one engine search, returns what the engine returns, and is what
// PathStats reports as a miss; nothing is ever a path hit.
func TestCachedOraclePaths(t *testing.T) {
	g, err := roadnet.Grid(roadnet.GridOptions{Rows: 6, Cols: 6, Spacing: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewDijkstra(g) }}
	s := NewSharedDefault(inner.new, g.N())
	o := s.NewWorker()
	want := sp.NewDijkstra(g).Path(0, 20)
	for _, got := range [][]roadnet.VertexID{o.Path(0, 20), o.Path(0, 20), s.Path(0, 20)} {
		if !slices.Equal(got, want) {
			t.Fatalf("Path(0,20) = %v, the engine says %v", got, want)
		}
	}
	if p := o.Path(4, 4); len(p) != 1 || p[0] != 4 {
		t.Fatalf("Path(v,v) = %v", p)
	}
	if inner.paths() != 3 {
		t.Fatalf("engines ran %d path searches, want 3 (one per call, none for u == v)", inner.paths())
	}
	if hits, misses := s.PathStats(); hits != 0 || misses != 3 {
		t.Fatalf("PathStats = (%d, %d), want (0, 3)", hits, misses)
	}
}

// TestSharedPathUnreachable: an unreachable pair is +Inf / nil in both
// directions, through the table and past it, and queries around it keep
// working.
func TestSharedPathUnreachable(t *testing.T) {
	// Two disconnected components: 0—1 and 2—3.
	b := roadnet.NewBuilder(0)
	for i := 0; i < 4; i++ {
		b.AddVertex(float64(i)*1000, 0)
	}
	b.AddEdge(0, 1, 1000)
	b.AddEdge(2, 3, 1000)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	o := NewSharedDefault(func() sp.Oracle { return sp.NewDijkstra(g) }, g.N())

	for _, pair := range [][2]roadnet.VertexID{{0, 2}, {2, 0}, {0, 2}} {
		if d := o.Dist(pair[0], pair[1]); d != sp.Inf {
			t.Fatalf("Dist(%d,%d) = %v, want +Inf", pair[0], pair[1], d)
		}
		if p := o.Path(pair[0], pair[1]); p != nil {
			t.Fatalf("Path(%d,%d) = %v, want nil", pair[0], pair[1], p)
		}
	}
	if p := o.Path(2, 3); len(p) != 2 || p[0] != 2 || p[1] != 3 {
		t.Fatalf("Path(2,3) = %v, want [2 3]", p)
	}
	if d := o.Dist(1, 0); d != 1000 {
		t.Fatalf("Dist(1,0) = %v, want 1000", d)
	}
}

// TestSharedAnswerIgnoresAskingOrder: two stacks over plain Dijkstra, one
// asked every pair as (u, v) and the other as (v, u), hold the same bits.
// A miss is computed in the direction asked, so this holds only because
// weights on the 1/256 m grid make Dijkstra's sums exact in either
// direction; off the grid they differed in the last bit on about half the
// pairs of a city.
func TestSharedAnswerIgnoresAskingOrder(t *testing.T) {
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: 0.004, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() sp.Oracle { return sp.NewDijkstra(g) }
	fwd := NewSharedDefault(newEngine, g.N()).NewWorker()
	bwd := NewSharedDefault(newEngine, g.N()).NewWorker()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		u := roadnet.VertexID(rng.Intn(g.N()))
		v := roadnet.VertexID(rng.Intn(g.N()))
		if a, b := fwd.Dist(u, v), bwd.Dist(v, u); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("pair {%d,%d}: asked (u,v) the table holds %v, asked (v,u) %v", u, v, a, b)
		}
	}
}

// TestSharedProbe: a probe serves what the table holds and counts it as a
// hit, and leaves no trace for what it does not hold — not a miss, not an
// entry, not a search.
func TestSharedProbe(t *testing.T) {
	g := testGraph(t)
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewBidirectional(g) }}
	s := NewSharedDefault(inner.new, g.N())
	w := s.NewWorker()

	if _, ok := w.Probe(3, 41); ok {
		t.Fatal("a fresh table served a probe")
	}
	if hits, misses := s.DistStats(); hits != 0 || misses != 0 || s.dists.size() != 0 || inner.dists() != 0 {
		t.Fatalf("a failed probe left (%d hits, %d misses, %d entries, %d searches), want nothing", hits, misses, s.dists.size(), inner.dists())
	}
	want := w.Dist(3, 41)
	for _, pair := range [][2]roadnet.VertexID{{3, 41}, {41, 3}} {
		if d, ok := w.Probe(pair[0], pair[1]); !ok || d != want {
			t.Fatalf("Probe(%d,%d) = %v, %v; Dist said %v", pair[0], pair[1], d, ok, want)
		}
	}
	if d, ok := w.Probe(7, 7); !ok || d != 0 {
		t.Fatalf("Probe(v,v) = %v, %v", d, ok)
	}
	if hits, misses := s.DistStats(); hits != 2 || misses != 1 || inner.dists() != 1 {
		t.Fatalf("DistStats = (%d hits, %d misses) after %d searches, want (2, 1) after 1", hits, misses, inner.dists())
	}
}

// TestLowerBoundsSharedStack: the production stack (the shared table over
// bidirectional Dijkstra) gives one answer whichever order a miss is asked
// in, that answer is at least the landmark bound, and it is plain
// Dijkstra's bits: all pairs of a small city, and 50,000 pairs of the
// suite's, mostly local (a random walk of up to 40 hops, the distances a
// kinetic-tree insertion asks for), the first 5,000 of them against
// Dijkstra. sp's TestLowerBoundsEveryEngine holds every engine to the same
// bits.
func TestLowerBoundsSharedStack(t *testing.T) {
	for _, c := range []struct {
		scale float64
		seed  int64
		pairs int // 0 = all
	}{{0.002, 5, 0}, {0.03, 17, 50000}} {
		g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: c.scale, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		lower, ref := sp.NewALT(g, 8), sp.NewDijkstra(g)
		w := NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N()).NewWorker()
		// check asks (u,v) first or (v,u) first, so misses are computed in
		// both directions, and returns the one answer it got.
		check := func(u, v roadnet.VertexID, reversed bool) float64 {
			var a, b float64
			if reversed {
				b = w.Dist(v, u)
				a = w.Dist(u, v)
			} else {
				a = w.Dist(u, v)
				b = w.Dist(v, u)
			}
			if a != b {
				t.Fatalf("scale %g: the stack answers %v asked (%d,%d) and %v asked (%d,%d)", c.scale, a, u, v, b, v, u)
			}
			if lb := lower.Lower(u, v); !(lb <= a) {
				t.Fatalf("scale %g: Lower(%d,%d) = %v, the stack answers %v", c.scale, u, v, lb, a)
			}
			return a
		}
		if c.pairs == 0 {
			for u := 0; u < g.N(); u++ {
				want := ref.All(roadnet.VertexID(u))
				for v := 0; v < g.N(); v++ {
					if d := check(roadnet.VertexID(u), roadnet.VertexID(v), v%2 == 0); d != want[v] {
						t.Fatalf("scale %g: the stack answers %v for (%d,%d), Dijkstra %v", c.scale, d, u, v, want[v])
					}
				}
			}
			continue
		}
		rng := rand.New(rand.NewSource(43))
		for i := 0; i < c.pairs; i++ {
			u := roadnet.VertexID(rng.Intn(g.N()))
			v := roadnet.VertexID(rng.Intn(g.N()))
			if i%10 != 0 {
				v = u
				for hops := 1 + rng.Intn(40); hops > 0; hops-- {
					if next, _ := g.Neighbors(v); len(next) > 0 {
						v = next[rng.Intn(len(next))]
					}
				}
			}
			if d := check(u, v, i%2 == 0); i < 5000 && d != ref.Dist(u, v) {
				t.Fatalf("scale %g: the stack answers %v for (%d,%d), Dijkstra %v", c.scale, d, u, v, ref.Dist(u, v))
			}
		}
	}
}
