package sp

import (
	"repro/internal/roadnet"
)

// ALT is an A*-with-landmarks index (Goldberg & Harrelson), one of the
// goal-directed techniques the paper surveys for the shortest-path substrate
// (§VI). Preprocessing selects k landmarks by farthest-point sampling and
// runs one full Dijkstra per landmark; queries bound the shared search with
// the triangle-inequality lower bound
//
//	h(v) = max_L |d(L, t) − d(L, v)|
//
// which is admissible and consistent on undirected graphs, typically
// dominating the Euclidean heuristic on road networks with non-metric
// weights.
//
// The index is immutable once built and is a WorkerSource: build it once
// and give every goroutine its own NewWorkerOracle.
type ALT struct {
	g         *roadnet.Graph
	landmarks []roadnet.VertexID
	distTo    [][]float64 // per landmark: distance to every vertex
}

// NewALT builds an ALT index with k landmarks (clamped to [1, 16]).
func NewALT(g *roadnet.Graph, k int) *ALT {
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	n := g.N()
	a := &ALT{g: g}
	if n == 0 {
		return a
	}
	dij := NewDijkstra(g)
	// Farthest-point sampling: start from vertex 0, then repeatedly take
	// the vertex maximizing the minimum distance to chosen landmarks.
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = Inf
	}
	cur := roadnet.VertexID(0)
	for len(a.landmarks) < k {
		a.landmarks = append(a.landmarks, cur)
		d := dij.All(cur)
		a.distTo = append(a.distTo, d)
		far := cur
		farD := -1.0
		for v := 0; v < n; v++ {
			if d[v] < minDist[v] {
				minDist[v] = d[v]
			}
			if minDist[v] != Inf && minDist[v] > farD {
				farD = minDist[v]
				far = roadnet.VertexID(v)
			}
		}
		if far == cur {
			break // graph exhausted (small or disconnected)
		}
		cur = far
	}
	return a
}

// NumLandmarks returns the number of landmarks actually selected.
func (a *ALT) NumLandmarks() int { return len(a.landmarks) }

// Lower returns a lower bound on the distance from u to v over every
// landmark, max_L |d(L,u) − d(L,v)|, without searching: 0 when no landmark
// reaches both, never NaN. Weights on the road network's grid make every
// engine's Dist and every landmark distance exact, so the bound holds
// against each engine bit for bit (TestLowerBoundsEveryEngine). Safe for
// concurrent use: it only reads the index.
func (a *ALT) Lower(u, v roadnet.VertexID) float64 {
	best := 0.0
	for li := range a.distTo {
		if b := a.gap(li, u, v); b > best {
			best = b
		}
	}
	return best
}

// NewWorkerOracle returns one goroutine's engine over the index.
func (a *ALT) NewWorkerOracle() Oracle {
	s := &altSearch{idx: a}
	s.searcher = newSearcher(a.g, s.h)
	return s
}

// altSearch is the per-goroutine half of ALT: label state, and the two
// landmarks chosen for the query in flight.
type altSearch struct {
	searcher
	idx    *ALT
	active [2]int // landmark indices; -1 = unused
}

// Index returns the index this engine searches over.
func (s *altSearch) Index() *ALT { return s.idx }

// gap returns landmark li's lower bound |d(L,t) − d(L,v)| on d(v, t), or
// -1 when the landmark reaches neither.
func (a *ALT) gap(li int, v, t roadnet.VertexID) float64 {
	d := a.distTo[li]
	if d[t] == Inf || d[v] == Inf {
		return -1
	}
	if diff := d[t] - d[v]; diff >= 0 {
		return diff
	}
	return d[v] - d[t]
}

// h returns the landmark lower bound on d(v, t) using the active subset.
func (s *altSearch) h(v, t roadnet.VertexID) float64 {
	best := 0.0
	for _, li := range s.active {
		if li >= 0 {
			if b := s.idx.gap(li, v, t); b > best {
				best = b
			}
		}
	}
	return best
}

// selectActive picks the two landmarks giving the best bound for this
// source/target pair (using all of them per relax would dominate runtime).
func (s *altSearch) selectActive(u, t roadnet.VertexID) {
	s.active = [2]int{-1, -1}
	var bound [2]float64
	for li := range s.idx.landmarks {
		b := s.idx.gap(li, u, t)
		switch {
		case b < 0:
		case s.active[0] < 0 || b > bound[0]:
			s.active[1], bound[1] = s.active[0], bound[0]
			s.active[0], bound[0] = li, b
		case s.active[1] < 0 || b > bound[1]:
			s.active[1], bound[1] = li, b
		}
	}
}

// Dist returns the shortest-path cost from u to v.
func (s *altSearch) Dist(u, v roadnet.VertexID) float64 {
	s.selectActive(u, v)
	return s.searcher.Dist(u, v)
}

// Path returns a shortest path from u to v, or nil if unreachable.
func (s *altSearch) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	s.selectActive(u, v)
	return s.searcher.Path(u, v)
}
