package sp

import (
	"repro/internal/roadnet"
)

// labels is the package's one search state: tentative distances and parent
// pointers for the vertices a search has reached, plus its frontier heap.
// Labels are invalidated between searches with an epoch stamp rather than
// an O(n) clear, so repeated queries on large graphs stay cheap. Reusing
// these buffers is what makes an engine per-goroutine.
type labels struct {
	dist   []float64
	parent []roadnet.VertexID
	stamp  []uint32
	epoch  uint32
	heap   distHeap
}

func newLabels(n int) labels {
	return labels{
		dist:   make([]float64, n),
		parent: make([]roadnet.VertexID, n),
		stamp:  make([]uint32, n),
	}
}

func (s *labels) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear stamps explicitly
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.heap = s.heap[:0]
}

func (s *labels) seen(v roadnet.VertexID) bool { return s.stamp[v] == s.epoch }

// relax labels v with distance d reached from `from` if that improves on
// its label, queueing it under d.
func (s *labels) relax(v roadnet.VertexID, d float64, from roadnet.VertexID) {
	if !s.seen(v) || d < s.dist[v] {
		s.stamp[v] = s.epoch
		s.dist[v] = d
		s.parent[v] = from
		s.heap.push(distItem{v, d})
	}
}

// chain appends at, parent[at], parent[parent[at]], ... to dst, stopping
// after end or at the search's root.
func (s *labels) chain(dst []roadnet.VertexID, at, end roadnet.VertexID) []roadnet.VertexID {
	for at != -1 {
		dst = append(dst, at)
		if at == end {
			break
		}
		at = s.parent[at]
	}
	return dst
}

// pathTo returns the path u..v recorded by the parent pointers of the most
// recent search from u. The search must have reached v.
func (s *labels) pathTo(u, v roadnet.VertexID) []roadnet.VertexID {
	p := s.chain(nil, v, u)
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// searcher is the per-goroutine half of every one-sided engine: label
// state over a graph plus the two things a backend may add to the search.
// Dijkstra adds neither, AStar and ALT a bound, ArcFlags an edge filter;
// what those read (coordinates, landmark tables, arc flags) is immutable
// and shared by any number of searchers.
type searcher struct {
	g *roadnet.Graph
	labels
	// bound returns a lower bound on d(v, target) that is consistent
	// (bound(v) <= w(v,t) + bound(t)); the frontier is ordered by
	// distance + bound. nil means 0: plain Dijkstra order.
	bound func(v, target roadnet.VertexID) float64
	// keys[v] is the heap key v was last queued under. Without a bound
	// that is its distance, and keys is dist itself.
	keys []float64
	// arcs, when non-nil, is the edge filter: an edge not flagged for
	// target's region cannot lie on a shortest path to target and is not
	// relaxed. It is data rather than a hook because it is consulted per
	// edge, where an indirect call costs more than the test it makes.
	arcs *ArcFlags
}

func newSearcher(g *roadnet.Graph, bound func(v, target roadnet.VertexID) float64) searcher {
	s := searcher{g: g, labels: newLabels(g.N()), bound: bound}
	s.keys = s.dist
	if bound != nil {
		s.keys = make([]float64, g.N())
	}
	return s
}

// run is the package's one-sided label-setting loop. It settles vertices
// outward from src and returns the distance of target as soon as target is
// settled, or Inf once everything reachable has been; target -1 never
// matches, so the search exhausts src's component. settle, when non-nil,
// sees each settled vertex with its final distance and returns whether to
// relax its out-edges.
func (s *searcher) run(src, target roadnet.VertexID, settle func(v roadnet.VertexID, d float64) bool) float64 {
	bound := s.bound
	var flags []uint64 // nil: relax every edge
	var bases []int
	var bit uint64
	if s.arcs != nil && target >= 0 {
		flags, bases = s.arcs.flags, s.arcs.bases
		bit = 1 << uint(s.arcs.region[target])
	}
	s.reset()
	// The source is alone in the heap, so its key orders nothing.
	s.stamp[src] = s.epoch
	s.dist[src], s.keys[src] = 0, 0
	s.parent[src] = -1
	s.heap.push(distItem{src, 0})
	for len(s.heap) > 0 {
		it := s.heap.pop()
		if it.dist > s.keys[it.v] {
			continue // superseded by a later, better label
		}
		d := s.dist[it.v]
		if it.v == target {
			return d
		}
		if settle != nil && !settle(it.v, d) {
			continue
		}
		base := 0
		if flags != nil {
			base = bases[it.v]
		}
		ts, ws := s.g.Neighbors(it.v)
		for i, t := range ts {
			if flags != nil && flags[base+i]&bit == 0 {
				continue
			}
			nd := d + ws[i]
			if s.seen(t) && nd >= s.dist[t] {
				continue
			}
			key := nd
			if bound != nil {
				key += bound(t, target)
			}
			s.stamp[t] = s.epoch
			s.dist[t] = nd
			s.parent[t] = it.v
			s.keys[t] = key
			s.heap.push(distItem{t, key})
		}
	}
	return Inf
}

// Dist returns the shortest-path cost from u to v, or Inf if unreachable.
func (s *searcher) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	return s.run(u, v, nil)
}

// Path returns a shortest path from u to v, or nil if unreachable.
func (s *searcher) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	if u == v {
		return []roadnet.VertexID{u}
	}
	if s.run(u, v, nil) == Inf {
		return nil
	}
	return s.pathTo(u, v)
}

// distItem is a heap entry.
type distItem struct {
	v    roadnet.VertexID
	dist float64
}

// distHeap is a binary min-heap of distItems with lazy deletion. A
// hand-rolled heap avoids the interface boxing of container/heap on this
// very hot path.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].dist < old[small].dist {
			small = l
		}
		if r < n && old[r].dist < old[small].dist {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}
