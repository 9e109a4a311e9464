package sp

import (
	"repro/internal/roadnet"
)

// Bidirectional is a bidirectional Dijkstra engine. On road networks it
// typically settles far fewer vertices than unidirectional Dijkstra,
// which matters when no precomputed index (hub labels) is available.
//
// Not safe for concurrent use.
type Bidirectional struct {
	g   *roadnet.Graph
	fwd labels
	bwd labels
}

// NewBidirectional returns a bidirectional Dijkstra engine for g.
func NewBidirectional(g *roadnet.Graph) *Bidirectional {
	return &Bidirectional{g: g, fwd: newLabels(g.N()), bwd: newLabels(g.N())}
}

// Dist returns the shortest-path cost from u to v.
func (b *Bidirectional) Dist(u, v roadnet.VertexID) float64 {
	d, _ := b.search(u, v)
	return d
}

// Path returns a shortest path from u to v, or nil if unreachable.
func (b *Bidirectional) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	d, meet := b.search(u, v)
	if d == Inf {
		return nil
	}
	// Forward half u .. meet, then the backward half, whose parents point
	// toward v.
	return b.bwd.chain(b.fwd.pathTo(u, meet), b.bwd.parent[meet], v)
}

// search runs the bidirectional search and returns the shortest distance and
// the vertex where the two frontiers met.
func (b *Bidirectional) search(u, v roadnet.VertexID) (float64, roadnet.VertexID) {
	if u == v {
		return 0, u
	}
	b.fwd.reset()
	b.bwd.reset()
	b.fwd.relax(u, 0, -1)
	b.bwd.relax(v, 0, -1)

	best := Inf
	meet := roadnet.VertexID(-1)
	update := func(w roadnet.VertexID) {
		if b.fwd.seen(w) && b.bwd.seen(w) {
			if d := b.fwd.dist[w] + b.bwd.dist[w]; d < best {
				best = d
				meet = w
			}
		}
	}

	for len(b.fwd.heap) > 0 || len(b.bwd.heap) > 0 {
		// Termination: when the sum of the two frontier minima exceeds
		// the best meeting distance, no better path exists.
		fMin, bMin := Inf, Inf
		if len(b.fwd.heap) > 0 {
			fMin = b.fwd.heap[0].dist
		}
		if len(b.bwd.heap) > 0 {
			bMin = b.bwd.heap[0].dist
		}
		if fMin+bMin >= best {
			break
		}
		// Expand the smaller frontier.
		if fMin <= bMin {
			it := b.fwd.heap.pop()
			if it.dist > b.fwd.dist[it.v] {
				continue
			}
			ts, ws := b.g.Neighbors(it.v)
			for i, t := range ts {
				b.fwd.relax(t, it.dist+ws[i], it.v)
				update(t)
			}
		} else {
			it := b.bwd.heap.pop()
			if it.dist > b.bwd.dist[it.v] {
				continue
			}
			ts, ws := b.g.Neighbors(it.v)
			for i, t := range ts {
				b.bwd.relax(t, it.dist+ws[i], it.v)
				update(t)
			}
		}
	}
	return best, meet
}
