package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU[int](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 100)
	c.Put(2, 200)
	if v, ok := c.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1)=%v,%v", v, ok)
	}
	c.Put(3, 300) // evicts 2 (1 was just used)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if v, ok := c.Get(1); !ok || v != 100 {
		t.Fatalf("1 evicted wrongly: %v,%v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != 300 {
		t.Fatalf("3 missing: %v,%v", v, ok)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU[string](2)
	c.Put(1, "a")
	c.Put(1, "b")
	if c.Len() != 1 {
		t.Fatalf("Len=%d", c.Len())
	}
	if v, _ := c.Get(1); v != "b" {
		t.Fatalf("value %q", v)
	}
}

func TestLRUCapacityClamp(t *testing.T) {
	c := NewLRU[int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap=%d, want clamp to 1", c.Cap())
	}
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Fatalf("Len=%d", c.Len())
	}
}

func TestLRUStats(t *testing.T) {
	c := NewLRU[int](4)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	c.Get(3)
	h, m := c.Stats()
	if h != 1 || m != 2 {
		t.Fatalf("stats %d/%d, want 1/2", h, m)
	}
	if r := c.HitRate(); r < 0.33 || r > 0.34 {
		t.Fatalf("hit rate %f", r)
	}
}

// TestLRUNeverExceedsCapacity is a property test: random workloads keep the
// size bounded and the internal list consistent.
func TestLRUNeverExceedsCapacity(t *testing.T) {
	f := func(keys []uint8, capSeed uint8) bool {
		capacity := int(capSeed%31) + 1
		c := NewLRU[uint8](capacity)
		for _, k := range keys {
			if k%3 == 0 {
				c.Get(uint64(k))
			} else {
				c.Put(uint64(k), k)
			}
			if c.Len() > capacity {
				return false
			}
			if err := c.checkInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUMatchesReference checks the eviction order against a simple
// reference implementation on random traces.
func TestLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const capacity = 8
	c := NewLRU[int](capacity)
	type refEntry struct {
		key uint64
		val int
	}
	var ref []refEntry // front = most recent
	refGet := func(k uint64) (int, bool) {
		for i, e := range ref {
			if e.key == k {
				ref = append(ref[:i], ref[i+1:]...)
				ref = append([]refEntry{e}, ref...)
				return e.val, true
			}
		}
		return 0, false
	}
	refPut := func(k uint64, v int) {
		if _, ok := refGet(k); ok {
			ref[0].val = v
			return
		}
		if len(ref) == capacity {
			ref = ref[:capacity-1]
		}
		ref = append([]refEntry{{k, v}}, ref...)
	}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(20))
		if rng.Intn(2) == 0 {
			v := rng.Int()
			c.Put(k, v)
			refPut(k, v)
		} else {
			got, gok := c.Get(k)
			want, wok := refGet(k)
			if gok != wok || (gok && got != want) {
				t.Fatalf("step %d: Get(%d) = %v,%v want %v,%v", i, k, got, gok, want, wok)
			}
		}
	}
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

func TestCachedOracleCorrectAndCaching(t *testing.T) {
	g, err := roadnet.Grid(roadnet.GridOptions{Rows: 8, Cols: 8, Spacing: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewDijkstra(g) }}
	s := NewShared(inner.new, g.N(), 1000, 100, 0)
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

func TestCachedOraclePaths(t *testing.T) {
	g, err := roadnet.Grid(roadnet.GridOptions{Rows: 6, Cols: 6, Spacing: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingEngines{newInner: func() sp.Oracle { return sp.NewDijkstra(g) }}
	o := NewShared(inner.new, g.N(), 100, 10, 0).NewWorker()
	p1 := o.Path(0, 20)
	p2 := o.Path(0, 20)
	if inner.paths() != 1 {
		t.Fatalf("path cache miss count %d, want 1", inner.paths())
	}
	if len(p1) != len(p2) {
		t.Fatal("cached path differs")
	}
	if p := o.Path(4, 4); len(p) != 1 || p[0] != 4 {
		t.Fatalf("Path(v,v) = %v", p)
	}
}

func BenchmarkLRUPutGet(b *testing.B) {
	c := NewLRU[float64](1 << 16)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(1 << 18))
		if _, ok := c.Get(k); !ok {
			c.Put(k, float64(k))
		}
	}
}
