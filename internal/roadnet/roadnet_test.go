package roadnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Builder)
	}{
		{"self-loop", func(b *Builder) { b.AddEdge(1, 1, 5) }},
		{"out-of-range", func(b *Builder) { b.AddEdge(0, 99, 5) }},
		{"negative-weight", func(b *Builder) { b.AddEdge(0, 1, -2) }},
		{"zero-weight", func(b *Builder) { b.AddEdge(0, 1, 0) }},
		{"nan-weight", func(b *Builder) { b.AddEdge(0, 1, math.NaN()) }},
		{"inf-weight", func(b *Builder) { b.AddEdge(0, 1, math.Inf(1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(3)
			tc.edit(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("expected build error")
			}
		})
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 0, 3) // duplicate, lower weight wins
	b.AddEdge(0, 1, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3 {
		t.Fatalf("EdgeWeight=%v,%v want 3,true", w, ok)
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 3 {
		t.Fatalf("reverse EdgeWeight=%v,%v want 3,true", w, ok)
	}
}

// TestWeightsOnGrid: Build rounds every weight up to the 1/256 m grid
// before keeping the lightest duplicate, leaves a weight already on it
// alone, and RoundDown rounds a budget the other way.
func TestWeightsOnGrid(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1.0001)
	b.AddEdge(1, 2, 1e-300)
	b.AddEdge(2, 3, 3.5)
	b.AddEdge(3, 4, 1<<50+0.5) // above the grid's reach: already a multiple
	b.AddEdge(4, 3, 1<<50)     // lighter duplicate
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		u, v VertexID
		want float64
	}{{0, 1, 1 + Resolution}, {1, 2, Resolution}, {2, 3, 3.5}, {3, 4, 1 << 50}} {
		if w, _ := g.EdgeWeight(c.u, c.v); w != c.want {
			t.Errorf("EdgeWeight(%d,%d) = %v, want %v", c.u, c.v, w, c.want)
		}
	}
	for _, c := range []struct{ in, want float64 }{
		{1.2, 1.19921875}, {3.5, 3.5}, {-0.001, -Resolution}, {0, 0},
		{1 << 50, 1 << 50}, {math.Inf(1), math.Inf(1)},
	} {
		if got := RoundDown(c.in); got != c.want {
			t.Errorf("RoundDown(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := RoundDown(math.NaN()); !math.IsNaN(got) {
		t.Errorf("RoundDown(NaN) = %v", got)
	}
}

func TestGridShape(t *testing.T) {
	g, err := Grid(GridOptions{Rows: 10, Cols: 15, Spacing: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 150 {
		t.Fatalf("N=%d, want 150", g.N())
	}
	wantEdges := 10*14 + 15*9 // horizontal + vertical
	if g.M() != wantEdges {
		t.Fatalf("M=%d, want %d", g.M(), wantEdges)
	}
	// Degrees are between 2 (corners) and 4.
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(VertexID(v)); d < 2 || d > 4 {
			t.Fatalf("vertex %d degree %d", v, d)
		}
	}
}

func TestGridWeightsAdmissible(t *testing.T) {
	g, err := Grid(GridOptions{Rows: 8, Cols: 8, Spacing: 250, Jitter: 0.3, WeightVar: 0.25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		ts, ws := g.Neighbors(VertexID(v))
		for i, u := range ts {
			if ws[i] < g.EuclideanDist(VertexID(v), u)-1e-9 {
				t.Fatalf("edge (%d,%d) weight %.2f below Euclidean %.2f — A* heuristic would be inadmissible",
					v, u, ws[i], g.EuclideanDist(VertexID(v), u))
			}
		}
	}
}

func TestGridDropKeepsConnected(t *testing.T) {
	g, err := Grid(GridOptions{Rows: 20, Cols: 20, Spacing: 100, DropFrac: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("largest-component extraction left %d components", count)
	}
	if g.N() < 200 {
		t.Fatalf("component too small: %d of 400", g.N())
	}
}

func TestRingRadial(t *testing.T) {
	g, err := RingRadial(RingRadialOptions{Rings: 4, Spokes: 12, RingGap: 800, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1+4*12 {
		t.Fatalf("N=%d", g.N())
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("ring-radial disconnected: %d components", count)
	}
	// Center connects to all first-ring vertices.
	if d := g.Degree(0); d != 12 {
		t.Fatalf("center degree %d, want 12", d)
	}
}

func TestSyntheticCityScale(t *testing.T) {
	g, err := SyntheticCity(CityOptions{Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// ~1% of Shanghai: about 1223 vertices before drop; the largest
	// component keeps most of them.
	if g.N() < 900 || g.N() > 1400 {
		t.Fatalf("N=%d, want ~1100-1300", g.N())
	}
	ratio := float64(g.M()) / float64(g.N())
	// Shanghai's E/V is 188426/122319 = 1.54.
	if ratio < 1.2 || ratio > 1.8 {
		t.Fatalf("edge/vertex ratio %.2f, want ~1.5", ratio)
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatal("synthetic city disconnected")
	}
}

func TestLargestComponentMapping(t *testing.T) {
	b := NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.SetCoord(VertexID(i), float64(i), 0)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, idmap := g.LargestComponent()
	if sub.N() != 3 {
		t.Fatalf("component N=%d, want 3", sub.N())
	}
	for nv, ov := range idmap {
		nx, ny := sub.Coord(VertexID(nv))
		ox, oy := g.Coord(ov)
		if nx != ox || ny != oy {
			t.Fatalf("coordinate mismatch for mapping %d->%d", nv, ov)
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g, err := Grid(GridOptions{Rows: 9, Cols: 7, Spacing: 120, Jitter: 0.2, WeightVar: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGraph(g, g2); err != nil {
		t.Fatal(err)
	}
}

// sameGraph reports the first difference between two graphs' vertices,
// coordinates and adjacency lists.
func sameGraph(g, g2 *Graph) error {
	if g2.N() != g.N() || g2.M() != g.M() {
		return fmt.Errorf("size mismatch: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		x1, y1 := g.Coord(VertexID(v))
		x2, y2 := g2.Coord(VertexID(v))
		if x1 != x2 || y1 != y2 {
			return fmt.Errorf("coord mismatch at %d", v)
		}
		t1, w1 := g.Neighbors(VertexID(v))
		t2, w2 := g2.Neighbors(VertexID(v))
		if len(t1) != len(t2) {
			return fmt.Errorf("degree mismatch at %d", v)
		}
		for i := range t1 {
			if t1[i] != t2[i] || w1[i] != w2[i] {
				return fmt.Errorf("adjacency mismatch at %d", v)
			}
		}
	}
	return nil
}

func TestReadGraphRejectsGarbage(t *testing.T) {
	if _, err := ReadGraph(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadGraph(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		buf.WriteString(graphMagic)
		binary.Write(&buf, binary.LittleEndian, []uint32{2, 0})
		binary.Write(&buf, binary.LittleEndian, []float64{0, 0, bad, 1})
		if _, err := ReadGraph(&buf); err == nil {
			t.Errorf("coordinate %v accepted", bad)
		}
	}
}

// TestReadGraphHugeHeader: a 12-byte header may claim 2^28 vertices; the
// reader must fail on the missing coordinates without first allocating
// for all of them.
func TestReadGraphHugeHeader(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadGraph(bytes.NewReader(hugeHeader())); err == nil {
		t.Fatal("a header with no coordinates was accepted")
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("rejecting a 12-byte header allocated %d MiB", alloc>>20)
	}
}

// hugeHeader is a graph header claiming 2^28 vertices and no edges, with
// nothing after it.
func hugeHeader() []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte(graphMagic), 1<<28), 0)
}

// FuzzReadGraph: no input makes ReadGraph panic, and every graph it
// accepts survives a WriteTo/ReadGraph round trip unchanged. The seed
// corpus under testdata/fuzz holds a written grid, truncations of it and
// the huge header.
func FuzzReadGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("re-reading a written graph: %v", err)
		}
		if err := sameGraph(g, g2); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}

// TestNearestMatchesBruteForce is a property test for the vertex locator.
func TestNearestMatchesBruteForce(t *testing.T) {
	g, err := Grid(GridOptions{Rows: 10, Cols: 10, Spacing: 200, Jitter: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewVertexLocator(g, 4)
	minX, minY, maxX, maxY := g.Bounds()
	rng := rand.New(rand.NewSource(8))
	f := func(a, b uint16) bool {
		x := minX + (maxX-minX)*(float64(a)/65535*1.2-0.1) // include out-of-bounds queries
		y := minY + (maxY-minY)*(float64(b)/65535*1.2-0.1)
		got := loc.Nearest(x, y)
		bestD := math.Inf(1)
		best := VertexID(-1)
		for v := 0; v < g.N(); v++ {
			vx, vy := g.Coord(VertexID(v))
			if d := math.Hypot(vx-x, vy-y); d < bestD {
				bestD = d
				best = VertexID(v)
			}
		}
		gx, gy := g.Coord(got)
		return math.Abs(math.Hypot(gx-x, gy-y)-bestD) < 1e-9 || got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsEmptyAndSingle(t *testing.T) {
	empty, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if x0, y0, x1, y1 := empty.Bounds(); x0 != 0 || y0 != 0 || x1 != 0 || y1 != 0 {
		t.Fatal("empty bounds not zero")
	}
	b := NewBuilder(1)
	b.SetCoord(0, 5, -3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if x0, y0, x1, y1 := g.Bounds(); x0 != 5 || y0 != -3 || x1 != 5 || y1 != -3 {
		t.Fatal("single-vertex bounds wrong")
	}
}
