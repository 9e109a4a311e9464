package sp

import (
	"repro/internal/roadnet"
)

// Dijkstra is the plain single-source engine: the shared search with no
// bound and no edge filter. It is the reference the other engines are
// tested against.
//
// Not safe for concurrent use.
type Dijkstra struct{ searcher }

// NewDijkstra returns a Dijkstra engine for g.
func NewDijkstra(g *roadnet.Graph) *Dijkstra { return &Dijkstra{newSearcher(g, nil)} }

// All computes shortest-path costs from u to every vertex. The returned
// slice is freshly allocated; unreachable vertices hold +Inf.
func (d *Dijkstra) All(u roadnet.VertexID) []float64 {
	d.run(u, -1, nil)
	out := make([]float64, d.g.N())
	for i := range out {
		if d.seen(roadnet.VertexID(i)) {
			out[i] = d.dist[i]
		} else {
			out[i] = Inf
		}
	}
	return out
}
