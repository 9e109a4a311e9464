package cache

import (
	"testing"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// TestSharedPathReversePrime: the stack's own Path must prime the reversed
// direction the way Dist always has — the second lookup direction is served
// from the cache, reversed, without touching the engine.
func TestSharedPathReversePrime(t *testing.T) {
	g := testGraph(t)
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewBidirectional(g) }}
	o := NewShared(inner.new, g.N(), 1<<10, 1<<10, 0)

	p := o.Path(0, 20)
	if len(p) < 2 || p[0] != 0 || p[len(p)-1] != 20 {
		t.Fatalf("bad path %v", p)
	}
	rev := o.Path(20, 0)
	if inner.paths() != 1 {
		t.Fatalf("engine ran %d path queries, want 1 (reverse must be primed)", inner.paths())
	}
	if len(rev) != len(p) {
		t.Fatalf("reverse path length %d, want %d", len(rev), len(p))
	}
	for i := range p {
		if rev[i] != p[len(p)-1-i] {
			t.Fatalf("reverse path %v is not the mirror of %v", rev, p)
		}
	}
	hits, misses := o.PathStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("PathStats = (%d, %d), want (1, 1)", hits, misses)
	}
}

// TestSharedPathUnreachable: an unreachable pair is cached as nil under
// both directions, and lookups keep working — repeat queries in either
// direction return nil from the cache without re-running the search.
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
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewDijkstra(g) }}
	o := NewShared(inner.new, g.N(), 16, 16, 1)

	if d := o.Dist(0, 2); d != sp.Inf {
		t.Fatalf("Dist(0,2) = %v, want +Inf", d)
	}
	if p := o.Path(0, 2); p != nil {
		t.Fatalf("Path(0,2) = %v, want nil", p)
	}
	engineCalls := inner.paths()
	// Both directions must now be cache hits that still report unreachable.
	if p := o.Path(0, 2); p != nil {
		t.Fatalf("cached Path(0,2) = %v, want nil", p)
	}
	if p := o.Path(2, 0); p != nil {
		t.Fatalf("cached Path(2,0) = %v, want nil", p)
	}
	if inner.paths() != engineCalls {
		t.Fatalf("engine re-ran an unreachable path query (%d calls, want %d)", inner.paths(), engineCalls)
	}
	// Reachable queries still work around the cached nils.
	if p := o.Path(2, 3); len(p) != 2 || p[0] != 2 || p[1] != 3 {
		t.Fatalf("Path(2,3) = %v, want [2 3]", p)
	}
	if d := o.Dist(1, 0); d != 1000 {
		t.Fatalf("Dist(1,0) = %v, want 1000", d)
	}
}
