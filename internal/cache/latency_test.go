package cache

import (
	"testing"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// distinctPairs returns want pairs with u < v: (u,v) and (v,u) are one
// entry, so only these are guaranteed first-touch misses.
func distinctPairs(t *testing.T, g *roadnet.Graph, want int) [][2]roadnet.VertexID {
	t.Helper()
	var pairs [][2]roadnet.VertexID
	n := roadnet.VertexID(g.N())
	for u := roadnet.VertexID(0); u < n && len(pairs) < want; u++ {
		for v := u + 1; v < n && len(pairs) < want; v++ {
			pairs = append(pairs, [2]roadnet.VertexID{u, v})
		}
	}
	if len(pairs) < want {
		t.Fatalf("graph too small for %d distinct pairs", want)
	}
	return pairs
}

// TestSharedDistLatencySampling: every worker facade samples on its own
// deterministic cadence, Shared.DistLatency merges all of them, and a
// distance published by one facade is a sampled *hit* for the next — while
// direct pooled Shared.Dist calls stay unsampled (their sampler state
// would race).
func TestSharedDistLatencySampling(t *testing.T) {
	g := testGraph(t)
	s := NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N())
	w1, w2 := s.NewWorker(), s.NewWorker()
	pairs := distinctPairs(t, g, 2*distSampleEvery)

	for _, p := range pairs {
		w1.Dist(p[0], p[1]) // misses, computed on w1's engine
	}
	for _, p := range pairs {
		w2.Dist(p[0], p[1]) // hits: w1 published to the shared table
	}
	hit, miss := s.DistLatency()
	if miss.Count() != 2 || hit.Count() != 2 {
		t.Fatalf("merged samples hit=%d miss=%d, want 2/2", hit.Count(), miss.Count())
	}

	for i := 0; i < 4*distSampleEvery; i++ {
		s.Dist(pairs[0][0], pairs[0][1])
	}
	hit, miss = s.DistLatency()
	if hit.Count()+miss.Count() != 4 {
		t.Fatalf("direct Shared.Dist calls were sampled: hit=%d miss=%d", hit.Count(), miss.Count())
	}
}
