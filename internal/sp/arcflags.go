package sp

import (
	"math"

	"repro/internal/roadnet"
)

// ArcFlags is an arc-flag index (Lauther), one of the goal-directed
// techniques the paper surveys ("Arc-flag (directing the search towards the
// goal)", §VI). The graph's bounding box is partitioned into a grid of
// regions; preprocessing marks, per directed edge and region, whether the
// edge lies on some shortest path into that region. Queries run the shared
// search but relax only edges whose flag for the target's region is set,
// which shrinks the search cone dramatically on long queries.
//
// Preprocessing runs one Dijkstra per region-boundary vertex, so it suits
// medium graphs or offline index construction; build cost is reported by
// BoundaryVertices. Correctness follows the standard argument: a shortest
// path to target t either stays inside t's region (intra-region edges carry
// their own region's flag) or enters it for the last time through a
// boundary vertex b, and its prefix is a shortest path to b, whose
// shortest-path-DAG edges are flagged during b's backward search.
//
// The index is immutable once built and is a WorkerSource: build it once
// and give every goroutine its own NewWorkerOracle.
type ArcFlags struct {
	g      *roadnet.Graph
	region []int32
	// flags[bases[u]+i] is a bitmask over regions for the i-th outgoing
	// edge of u; bases holds cumulative out-degrees (the CSR edge base).
	flags    []uint64
	bases    []int
	boundary int
}

// MaxArcFlagRegions bounds the region count to the flag word width.
const MaxArcFlagRegions = 64

// NewArcFlags builds the index with a gridDim x gridDim region partition
// (gridDim clamped so that regions <= MaxArcFlagRegions).
func NewArcFlags(g *roadnet.Graph, gridDim int) *ArcFlags {
	if gridDim < 1 {
		gridDim = 1
	}
	for gridDim*gridDim > MaxArcFlagRegions {
		gridDim--
	}
	n := g.N()
	a := &ArcFlags{g: g, region: make([]int32, n), bases: make([]int, n+1)}
	for v := 0; v < n; v++ {
		a.bases[v+1] = a.bases[v] + g.Degree(roadnet.VertexID(v))
	}
	a.flags = make([]uint64, a.bases[n])
	if n == 0 {
		return a
	}
	minX, minY, maxX, maxY := g.Bounds()
	w := math.Max(maxX-minX, 1e-9)
	h := math.Max(maxY-minY, 1e-9)
	for v := 0; v < n; v++ {
		x, y := g.Coord(roadnet.VertexID(v))
		cx := int(float64(gridDim) * (x - minX) / w)
		cy := int(float64(gridDim) * (y - minY) / h)
		if cx >= gridDim {
			cx = gridDim - 1
		}
		if cy >= gridDim {
			cy = gridDim - 1
		}
		a.region[v] = int32(cy*gridDim + cx)
	}

	// Intra-region edges carry their own region's flag.
	for u := 0; u < n; u++ {
		ts, _ := g.Neighbors(roadnet.VertexID(u))
		for i, t := range ts {
			if a.region[u] == a.region[t] {
				a.flags[a.bases[u]+i] |= 1 << uint(a.region[t])
			}
		}
	}

	// One backward Dijkstra per boundary vertex. The graph is undirected,
	// so a forward search from b computes distances to b.
	dij := NewDijkstra(g)
	for v := 0; v < n; v++ {
		if !a.isBoundary(roadnet.VertexID(v)) {
			continue
		}
		a.boundary++
		db := dij.All(roadnet.VertexID(v))
		bit := uint64(1) << uint(a.region[v])
		for u := 0; u < n; u++ {
			if db[u] == Inf {
				continue
			}
			ts, ws := g.Neighbors(roadnet.VertexID(u))
			for i, t := range ts {
				// Edge (u,t) is tight toward b if d(u,b) = w + d(t,b).
				if db[u] == ws[i]+db[t] {
					a.flags[a.bases[u]+i] |= bit
				}
			}
		}
	}
	return a
}

// isBoundary reports whether v has a neighbor in another region.
func (a *ArcFlags) isBoundary(v roadnet.VertexID) bool {
	ts, _ := a.g.Neighbors(v)
	for _, t := range ts {
		if a.region[t] != a.region[v] {
			return true
		}
	}
	return false
}

// BoundaryVertices returns the number of boundary vertices, i.e. the number
// of Dijkstra runs preprocessing performed.
func (a *ArcFlags) BoundaryVertices() int { return a.boundary }

// NewWorkerOracle returns one goroutine's engine over the index.
func (a *ArcFlags) NewWorkerOracle() Oracle {
	s := &arcSearch{newSearcher(a.g, nil)}
	s.arcs = a
	return s
}

// arcSearch is the per-goroutine half of ArcFlags: the shared search with
// the index as its edge filter.
type arcSearch struct{ searcher }

// Index returns the index this engine searches over.
func (s *arcSearch) Index() *ArcFlags { return s.arcs }
