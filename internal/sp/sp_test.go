package sp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/roadnet"
)

func testGraph(t testing.TB, seed int64) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 12, Cols: 12, Spacing: 300, Jitter: 0.25, WeightVar: 0.2, DropFrac: 0.08, Seed: seed,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

// engineBuilders constructs one per-goroutine instance of every search
// engine, keyed by its -oracle name.
var engineBuilders = map[string]func(*roadnet.Graph) Oracle{
	"dijkstra":  func(g *roadnet.Graph) Oracle { return NewDijkstra(g) },
	"bidij":     func(g *roadnet.Graph) Oracle { return NewBidirectional(g) },
	"astar":     func(g *roadnet.Graph) Oracle { return NewAStar(g) },
	"alt":       func(g *roadnet.Graph) Oracle { return NewALT(g, 8).NewWorkerOracle() },
	"arcflags":  func(g *roadnet.Graph) Oracle { return NewArcFlags(g, 4).NewWorkerOracle() },
	"hublabels": func(g *roadnet.Graph) Oracle { return NewHubLabels(g) },
}

// suiteCity is the city all four benchmark-suite workloads run on
// (benchmark/workloads.go): 3,715 vertices.
func suiteCity(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: 0.03, Seed: 17})
	if err != nil {
		t.Fatalf("city: %v", err)
	}
	return g
}

// searchEngines builds every engine over g.
func searchEngines(g *roadnet.Graph) map[string]Oracle {
	engines := make(map[string]Oracle, len(engineBuilders))
	for name, build := range engineBuilders {
		engines[name] = build(g)
	}
	return engines
}

// checkPair compares one engine's Dist(u,v), and the edge-by-edge cost of
// its Path(u,v), against the reference distance, bit for bit: weights lie
// on the 1/256 m grid, so sums in any order are exact.
func checkPair(t *testing.T, g *roadnet.Graph, name string, e Oracle, u, v roadnet.VertexID, want float64) {
	t.Helper()
	if got := e.Dist(u, v); got != want {
		t.Fatalf("%s.Dist(%d,%d) = %v, want %v", name, u, v, got, want)
	}
	p := e.Path(u, v)
	if want == Inf {
		if p != nil {
			t.Fatalf("%s.Path(%d,%d) = %v for an unreachable pair", name, u, v, p)
		}
		return
	}
	if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
		t.Fatalf("%s.Path(%d,%d) endpoints wrong: %v", name, u, v, p)
	}
	if got := pathCost(g, p); got != want {
		t.Fatalf("%s.Path(%d,%d) walks to %v, want %v", name, u, v, got, want)
	}
}

// TestEnginesAgree cross-validates every engine against the Floyd–Warshall
// matrix on all pairs of the test grid: the distance, and that the returned
// path walks edge-by-edge to exactly that distance.
func TestEnginesAgree(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		g := testGraph(t, seed)
		m, err := NewMatrix(g)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range searchEngines(g) {
			for u := 0; u < g.N(); u++ {
				for v := 0; v < g.N(); v++ {
					u, v := roadnet.VertexID(u), roadnet.VertexID(v)
					checkPair(t, g, name, e, u, v, m.Dist(u, v))
				}
			}
		}
	}
}

// TestEnginesAgreeOnCity repeats the check on sampled pairs of graphs too
// large for the matrix, against Dijkstra: the suite's city, where the
// backends actually run, and a larger one. A city is a grid with a fifth of
// its edges dropped, so searches meet dead ends and detours the small test
// grid does not have.
func TestEnginesAgreeOnCity(t *testing.T) {
	larger, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: 0.045, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if larger.N() < 5000 {
		t.Fatalf("city has %d vertices, want at least 5000", larger.N())
	}
	type pair struct {
		u, v roadnet.VertexID
		want float64
	}
	cities := []*roadnet.Graph{suiteCity(t), larger}
	pairs := make([][]pair, len(cities))
	for c, g := range cities {
		ref := NewDijkstra(g)
		rng := rand.New(rand.NewSource(32))
		pairs[c] = make([]pair, 2000)
		for i := range pairs[c] {
			u := roadnet.VertexID(rng.Intn(g.N()))
			v := roadnet.VertexID(rng.Intn(g.N()))
			pairs[c][i] = pair{u, v, ref.Dist(u, v)}
		}
	}
	for name, build := range engineBuilders {
		if name == "dijkstra" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel() // the index builds dominate; overlap them
			for c, g := range cities {
				e := build(g)
				for _, p := range pairs[c] {
					checkPair(t, g, name, e, p.u, p.v, p.want)
				}
			}
		})
	}
}

// TestTriangleInequality is a property test: oracle distances on a graph
// must satisfy d(u,w) <= d(u,v) + d(v,w).
func TestTriangleInequality(t *testing.T) {
	g := testGraph(t, 5)
	m, err := NewMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	f := func(a, b, c uint16) bool {
		u := roadnet.VertexID(int(a) % n)
		v := roadnet.VertexID(int(b) % n)
		w := roadnet.VertexID(int(c) % n)
		duw, duv, dvw := m.Dist(u, w), m.Dist(u, v), m.Dist(v, w)
		if duv == Inf || dvw == Inf {
			return true
		}
		return duw <= duv+dvw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSymmetry: the graph is undirected, so distances are symmetric, bit
// for bit.
func TestSymmetry(t *testing.T) {
	g := testGraph(t, 6)
	d := NewDijkstra(g)
	n := g.N()
	f := func(a, b uint16) bool {
		u := roadnet.VertexID(int(a) % n)
		v := roadnet.VertexID(int(b) % n)
		return d.Dist(u, v) == d.Dist(v, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnected checks Inf/nil reporting across components.
func TestDisconnected(t *testing.T) {
	b := roadnet.NewBuilder(4)
	b.SetCoord(0, 0, 0)
	b.SetCoord(1, 1, 0)
	b.SetCoord(2, 10, 0)
	b.SetCoord(3, 11, 0)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range searchEngines(g) {
		if d := e.Dist(0, 2); d != Inf {
			t.Errorf("%s: cross-component distance %v, want Inf", name, d)
		}
		if p := e.Path(0, 3); p != nil {
			t.Errorf("%s: cross-component path %v, want nil", name, p)
		}
		if d := e.Dist(0, 1); d != 1 {
			t.Errorf("%s: same-component distance %v, want 1", name, d)
		}
	}
}

// TestHubLabelStats pins the index the pruned searches build, so the settle
// order, the pruning test and the ranking stay as they are.
func TestHubLabelStats(t *testing.T) {
	g := testGraph(t, 10)
	hl := NewHubLabels(g)
	if hl.labels != 4703 {
		t.Fatalf("built %d labels on the %d-vertex test grid, want 4703", hl.labels, g.N())
	}
	if got, want := hl.AvgLabelSize(), 4703/float64(g.N()); got != want {
		t.Fatalf("AvgLabelSize() = %v, want %v", got, want)
	}
}

// TestDistSelfIsZero covers the trivial cases across engines.
func TestDistSelfIsZero(t *testing.T) {
	g := testGraph(t, 11)
	for name, e := range searchEngines(g) {
		if d := e.Dist(3, 3); d != 0 {
			t.Errorf("%s: Dist(v,v)=%v", name, d)
		}
		if p := e.Path(3, 3); len(p) != 1 || p[0] != 3 {
			t.Errorf("%s: Path(v,v)=%v", name, p)
		}
	}
}

// TestEpochWraparound forces every engine's epoch counter to wrap
// mid-stream and checks queries stay correct (the stamp-clearing path of
// the shared label state).
func TestEpochWraparound(t *testing.T) {
	g := testGraph(t, 12)
	m, err := NewMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	engines := searchEngines(g)
	delete(engines, "hublabels") // answers from its labels; its path engine is an AStar
	for name, e := range engines {
		var states []*labels
		switch e := e.(type) {
		case *Dijkstra:
			states = []*labels{&e.labels}
		case *AStar:
			states = []*labels{&e.labels}
		case *altSearch:
			states = []*labels{&e.labels}
		case *arcSearch:
			states = []*labels{&e.labels}
		case *Bidirectional:
			states = []*labels{&e.fwd, &e.bwd}
		default:
			t.Fatalf("%s: no label state known for %T", name, e)
		}
		e.Dist(0, roadnet.VertexID(g.N()-1)) // stamps at a live epoch, to be cleared by the wrap
		for _, s := range states {
			s.epoch = math.MaxUint32 - 3
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 10; i++ {
			u := roadnet.VertexID(rng.Intn(g.N()))
			v := roadnet.VertexID(rng.Intn(g.N()))
			checkPair(t, g, name, e, u, v, m.Dist(u, v))
		}
		for _, s := range states {
			if s.epoch > 100 {
				t.Fatalf("%s: epoch %d after 20 searches from MaxUint32-3: it never wrapped", name, s.epoch)
			}
		}
	}
}

func TestArcFlagsStats(t *testing.T) {
	g := testGraph(t, 23)
	a := NewArcFlags(g, 4)
	if a.BoundaryVertices() == 0 {
		t.Fatal("no boundary vertices found on a partitioned grid")
	}
	if a.BoundaryVertices() >= g.N() {
		t.Fatalf("all %d vertices boundary — partition degenerate", g.N())
	}
}

func TestALTLandmarkCount(t *testing.T) {
	g := testGraph(t, 22)
	if got := NewALT(g, 0).NumLandmarks(); got != 1 {
		t.Fatalf("k=0 clamped to %d landmarks, want 1", got)
	}
	if got := NewALT(g, 100).NumLandmarks(); got > 16 {
		t.Fatalf("k=100 gave %d landmarks, want <= 16", got)
	}
}

// benchDist times random-pair Dist queries on the test grid and on the
// suite's city, where the ranking is the one the system sees; every engine
// sees the same pair stream, and its index is built outside the timer.
// The last answer is checked against Dijkstra, so an engine that stops
// answering fails even a smoke run.
func benchDist(b *testing.B, engine string) {
	for _, g := range []*roadnet.Graph{testGraph(b, 20), suiteCity(b)} {
		e := engineBuilders[engine](g)
		b.Run(fmt.Sprintf("vertices=%d", g.N()), func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			var u, v roadnet.VertexID
			var last float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u = roadnet.VertexID(rng.Intn(g.N()))
				v = roadnet.VertexID(rng.Intn(g.N()))
				last = e.Dist(u, v)
			}
			b.StopTimer()
			if want := NewDijkstra(g).Dist(u, v); last != want {
				b.Fatalf("Dist(%d,%d) = %v, Dijkstra says %v", u, v, last, want)
			}
		})
	}
}

func BenchmarkDijkstraDist(b *testing.B)      { benchDist(b, "dijkstra") }
func BenchmarkBidirectionalDist(b *testing.B) { benchDist(b, "bidij") }
func BenchmarkAStarDist(b *testing.B)         { benchDist(b, "astar") }
func BenchmarkALTDist(b *testing.B)           { benchDist(b, "alt") }
func BenchmarkArcFlagsDist(b *testing.B)      { benchDist(b, "arcflags") }
func BenchmarkHubLabelDist(b *testing.B)      { benchDist(b, "hublabels") }

// checkExact fails unless every engine answers (u,v) and (v,u) with the
// reference Dijkstra's bits for (u,v), and the landmark bound is a number
// at most that answer.
func checkExact(t *testing.T, ref *Dijkstra, a *ALT, engines map[string]Oracle, u, v roadnet.VertexID) {
	t.Helper()
	want := ref.Dist(u, v)
	for name, e := range engines {
		if fwd, bwd := e.Dist(u, v), e.Dist(v, u); fwd != want || bwd != want {
			t.Fatalf("%s: Dist(%d,%d) = %v and Dist(%d,%d) = %v, Dijkstra says %v", name, u, v, fwd, v, u, bwd, want)
		}
	}
	if lb := a.Lower(u, v); math.IsNaN(lb) || lb < 0 || lb > want {
		t.Fatalf("Lower(%d,%d) = %v, Dist = %v", u, v, lb, want)
	}
}

// TestLowerBoundsEveryEngine: weights lie on the 1/256 m grid, so every
// engine returns Dijkstra's bits for a pair, asked in either direction, and
// the landmark bound the kinetic tree prunes with is at most that answer
// with no margin. All pairs of the test grid; 5,000 pairs of the suite's
// city, 500 uniform and the rest local (a random walk of up to 40 hops:
// the distances an insertion asks for); and a two-component graph,
// where the bound must stay a number. cache's TestLowerBoundsSharedStack
// holds the shared table to the same bits.
func TestLowerBoundsEveryEngine(t *testing.T) {
	city := suiteCity(t)
	built := make(chan map[string]Oracle, 1)
	go func() { built <- searchEngines(city) }() // the hub-label build overlaps the grid sweep

	grid := testGraph(t, 7)
	ref, a, engines := NewDijkstra(grid), NewALT(grid, 8), searchEngines(grid)
	for u := 0; u < grid.N(); u++ {
		for v := 0; v < grid.N(); v++ {
			checkExact(t, ref, a, engines, roadnet.VertexID(u), roadnet.VertexID(v))
		}
	}

	ref, a, engines = NewDijkstra(city), NewALT(city, 8), <-built
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 5000; i++ {
		u := roadnet.VertexID(rng.Intn(city.N()))
		v := roadnet.VertexID(rng.Intn(city.N()))
		if i >= 500 {
			v = u
			for hops := 1 + rng.Intn(40); hops > 0; hops-- {
				if next, _ := city.Neighbors(v); len(next) > 0 {
					v = next[rng.Intn(len(next))]
				}
			}
		}
		checkExact(t, ref, a, engines, u, v)
	}

	b := roadnet.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.SetCoord(roadnet.VertexID(i), float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(3, 4, 1)
	split, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, a, engines = NewDijkstra(split), NewALT(split, 8), searchEngines(split)
	for u := 0; u < split.N(); u++ {
		for v := 0; v < split.N(); v++ {
			checkExact(t, ref, a, engines, roadnet.VertexID(u), roadnet.VertexID(v))
		}
	}
	if lb := a.Lower(0, 2); lb != 3 {
		t.Fatalf("Lower(0,2) = %v on a path graph, want 3", lb)
	}
}
