package sp

import (
	"sort"
	"sync"

	"repro/internal/roadnet"
)

// HubLabels is a 2-hop labeling distance index built with pruned landmark
// labeling (Akiba et al.), the practical hub-labeling construction the paper
// refers to ("we implement the state-of-art hub-labeling algorithm — a fast
// and practical algorithm to heuristically construct the distance labeling
// on large road networks, where each vertex records a set of intermediate
// vertices and their distance to them", §VI).
//
// Each vertex stores a sorted list of (hub, distance) pairs; a distance
// query intersects the two endpoint lists in a single merge pass.
// HubLabels is a SharedOracle: distance queries read the immutable labels
// and are safe for unsynchronized concurrent use, while path queries fall
// back to an internal A* engine serialized by a mutex.
type HubLabels struct {
	g      *roadnet.Graph
	hubs   [][]int32   // per-vertex sorted hub ranks
	dists  [][]float64 // parallel distances
	labels int         // total label entries, for stats

	pathMu sync.Mutex
	astar  *AStar // for Path; guarded by pathMu
}

// NewHubLabels builds the index. Vertices are ranked by degree (descending,
// ties by ID), a cheap ordering that works well on road networks. Build time
// is roughly one pruned Dijkstra per vertex.
func NewHubLabels(g *roadnet.Graph) *HubLabels {
	n := g.N()
	order := make([]roadnet.VertexID, n)
	for i := range order {
		order[i] = roadnet.VertexID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})

	hl := &HubLabels{
		g:     g,
		hubs:  make([][]int32, n),
		dists: make([][]float64, n),
		astar: NewAStar(g),
	}

	// One pruned search per vertex, most important first. During the
	// search from the rank-r root every vertex carries only labels of
	// hubs ranked < r, so the label intersection answers "is there
	// already a witness path via a more important hub?" — including for
	// the root itself, whose intersection with itself is still empty, so
	// it is never pruned before labeling itself.
	s := newSearcher(g, nil)
	for r, root := range order {
		s.run(root, -1, func(v roadnet.VertexID, d float64) bool {
			if hl.intersect(root, v) <= d {
				return false // pruned: already certified, and so is everything behind v
			}
			// Ranks are assigned in increasing order, so appending
			// keeps the lists sorted.
			hl.hubs[v] = append(hl.hubs[v], int32(r))
			hl.dists[v] = append(hl.dists[v], d)
			hl.labels++
			return true
		})
	}
	return hl
}

// intersect merges the label lists of a and b and returns the least
// distance through a common hub, or Inf if they share none.
func (hl *HubLabels) intersect(a, b roadnet.VertexID) float64 {
	ha, da := hl.hubs[a], hl.dists[a]
	hb, db := hl.hubs[b], hl.dists[b]
	best := Inf
	i, j := 0, 0
	for i < len(ha) && j < len(hb) {
		switch {
		case ha[i] == hb[j]:
			if d := da[i] + db[j]; d < best {
				best = d
			}
			i++
			j++
		case ha[i] < hb[j]:
			i++
		default:
			j++
		}
	}
	return best
}

// Dist returns the shortest-path cost from u to v by intersecting label
// lists. Safe for concurrent use after construction.
func (hl *HubLabels) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	return hl.intersect(u, v)
}

// Path returns a shortest path from u to v via the internal A* engine.
// Hub labels certify distances; explicit paths are recovered on demand,
// matching the paper's design where "a second version of the road network is
// stored in memory in a weighted adjacency list" for route tracking.
// Concurrent calls serialize on an internal mutex.
func (hl *HubLabels) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	hl.pathMu.Lock()
	defer hl.pathMu.Unlock()
	return hl.astar.Path(u, v)
}

// ConcurrencySafe marks HubLabels as a SharedOracle.
func (hl *HubLabels) ConcurrencySafe() {}

// AvgLabelSize returns the mean number of label entries per vertex, a
// standard index-quality statistic.
func (hl *HubLabels) AvgLabelSize() float64 {
	if hl.g.N() == 0 {
		return 0
	}
	return float64(hl.labels) / float64(hl.g.N())
}
