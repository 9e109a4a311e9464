// Package roadnet provides the road-network substrate for the ridesharing
// system: a compact undirected weighted graph in CSR (compressed sparse row)
// form, synthetic network generators that stand in for the Shanghai road
// network used in the paper, nearest-vertex snapping, and serialization.
//
// Edge weights are travel costs in meters. At the paper's constant speed of
// 14 m/s, distance and time measures are interchangeable (paper §I-A); the
// rest of the system stores costs in meters and converts for reporting.
package roadnet

import (
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex of a Graph. Valid IDs are in [0, Graph.N()).
type VertexID = int32

// Speed is the assumed constant driving speed in meters/second
// (paper §VI: "approximately 48 kilometers/hour").
const Speed = 14.0

// Resolution is the grid, in meters, that every edge weight lies on: Build
// rounds weights up to it, and budgets are rounded down with RoundDown.
// Multiples of 2⁻⁸ add exactly in float64, in any order, while the sums
// stay below 2⁴⁵ m, so every shortest-path engine returns the same bits
// for a pair and every arrival, deadline and slack compares exactly.
const Resolution = 1.0 / 256

// RoundDown returns the largest multiple of Resolution at or below m.
// From 2⁴⁴ on every float64 is one already; ±Inf and NaN pass through.
func RoundDown(m float64) float64 {
	if !(math.Abs(m) < 1<<44) {
		return m
	}
	return math.Floor(m/Resolution) * Resolution
}

// Graph is an undirected weighted road network stored in CSR form.
// The zero value is an empty graph; use a Builder to construct one.
//
// Graph is immutable after construction and safe for concurrent use.
type Graph struct {
	xs, ys  []float64 // vertex coordinates in meters
	offsets []int32   // CSR row offsets, len N+1
	targets []VertexID
	weights []float64 // cost in meters, parallel to targets
	m       int       // number of undirected edges
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.xs) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Coord returns the planar coordinates of v in meters.
func (g *Graph) Coord(v VertexID) (x, y float64) { return g.xs[v], g.ys[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency of v as parallel slices of target vertices
// and edge weights. The returned slices alias internal storage and must not
// be modified.
func (g *Graph) Neighbors(v VertexID) ([]VertexID, []float64) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// EdgeWeight returns the weight of edge (u, v) and whether the edge exists.
func (g *Graph) EdgeWeight(u, v VertexID) (float64, bool) {
	ts, ws := g.Neighbors(u)
	for i, t := range ts {
		if t == v {
			return ws[i], true
		}
	}
	return 0, false
}

// EuclideanDist returns the straight-line distance between two vertices in
// meters. It is a lower bound on network distance for generator-produced
// graphs whose weights are at least the Euclidean edge length, which makes
// it admissible as an A* heuristic.
func (g *Graph) EuclideanDist(u, v VertexID) float64 {
	dx := g.xs[u] - g.xs[v]
	dy := g.ys[u] - g.ys[v]
	return math.Hypot(dx, dy)
}

// Bounds returns the bounding box of all vertex coordinates.
// It returns zeros for an empty graph.
func (g *Graph) Bounds() (minX, minY, maxX, maxY float64) {
	if g.N() == 0 {
		return 0, 0, 0, 0
	}
	minX, maxX = g.xs[0], g.xs[0]
	minY, maxY = g.ys[0], g.ys[0]
	for i := 1; i < len(g.xs); i++ {
		minX = math.Min(minX, g.xs[i])
		maxX = math.Max(maxX, g.xs[i])
		minY = math.Min(minY, g.ys[i])
		maxY = math.Max(maxY, g.ys[i])
	}
	return minX, minY, maxX, maxY
}

// Builder accumulates vertices and edges and produces an immutable Graph.
type Builder struct {
	xs, ys []float64
	us, vs []VertexID
	ws     []float64
}

// NewBuilder returns a Builder pre-sized for n vertices, all at the origin.
func NewBuilder(n int) *Builder {
	return &Builder{
		xs: make([]float64, n),
		ys: make([]float64, n),
	}
}

// SetCoord sets the planar coordinates of vertex v in meters.
func (b *Builder) SetCoord(v VertexID, x, y float64) {
	b.xs[v] = x
	b.ys[v] = y
}

// AddVertex appends a new vertex and returns its ID.
func (b *Builder) AddVertex(x, y float64) VertexID {
	b.xs = append(b.xs, x)
	b.ys = append(b.ys, y)
	return VertexID(len(b.xs) - 1)
}

// AddEdge records an undirected edge (u, v) with weight w meters.
// Self-loops and non-positive weights are rejected at Build time.
func (b *Builder) AddEdge(u, v VertexID, w float64) {
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.xs) }

// Build validates the accumulated vertices and edges and returns the Graph.
// Weights are rounded up to the Resolution grid (so one at least the
// Euclidean length stays so), and duplicates keep the minimum weight.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.xs)
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("roadnet: edge %d: vertex out of range: (%d, %d) with n=%d", i, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("roadnet: edge %d: self-loop at vertex %d", i, u)
		}
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("roadnet: edge %d (%d,%d): invalid weight %v", i, u, v, w)
		}
	}

	// Deduplicate, keeping minimum weight per unordered pair.
	type key struct{ a, b VertexID }
	dedup := make(map[key]float64, len(b.us))
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		if u > v {
			u, v = v, u
		}
		k, w := key{u, v}, -RoundDown(-b.ws[i]) // rounded up
		if old, ok := dedup[k]; !ok || w < old {
			dedup[k] = w
		}
	}

	deg := make([]int32, n+1)
	for k := range dedup {
		deg[k.a+1]++
		deg[k.b+1]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	targets := make([]VertexID, offsets[n])
	weights := make([]float64, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for k, w := range dedup {
		targets[cursor[k.a]] = k.b
		weights[cursor[k.a]] = w
		cursor[k.a]++
		targets[cursor[k.b]] = k.a
		weights[cursor[k.b]] = w
		cursor[k.b]++
	}

	g := &Graph{
		xs:      append([]float64(nil), b.xs...),
		ys:      append([]float64(nil), b.ys...),
		offsets: offsets,
		targets: targets,
		weights: weights,
		m:       len(dedup),
	}
	g.sortAdjacency()
	return g, nil
}

// sortAdjacency orders each vertex's neighbor list by target ID so that
// adjacency scans are deterministic and cache-friendly.
func (g *Graph) sortAdjacency() {
	for v := 0; v < g.N(); v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		ts := g.targets[lo:hi]
		ws := g.weights[lo:hi]
		sort.Sort(&adjSorter{ts, ws})
	}
}

type adjSorter struct {
	ts []VertexID
	ws []float64
}

func (s *adjSorter) Len() int           { return len(s.ts) }
func (s *adjSorter) Less(i, j int) bool { return s.ts[i] < s.ts[j] }
func (s *adjSorter) Swap(i, j int) {
	s.ts[i], s.ts[j] = s.ts[j], s.ts[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// ConnectedComponents returns a component label per vertex and the number of
// components. Labels are in [0, count) and assigned in order of discovery.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []VertexID
	for start := 0; start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		labels[start] = int32(count)
		queue = append(queue[:0], VertexID(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ts, _ := g.Neighbors(v)
			for _, t := range ts {
				if labels[t] < 0 {
					labels[t] = int32(count)
					queue = append(queue, t)
				}
			}
		}
		count++
	}
	return labels, count
}

// LargestComponent returns the subgraph induced by the largest connected
// component, together with a mapping from new vertex IDs to the originals.
// If the graph is already connected it is returned unchanged with an
// identity mapping.
func (g *Graph) LargestComponent() (*Graph, []VertexID) {
	labels, count := g.ConnectedComponents()
	if count <= 1 {
		idmap := make([]VertexID, g.N())
		for i := range idmap {
			idmap[i] = VertexID(i)
		}
		return g, idmap
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	old2new := make([]VertexID, g.N())
	var new2old []VertexID
	for v := range old2new {
		if labels[v] == int32(best) {
			old2new[v] = VertexID(len(new2old))
			new2old = append(new2old, VertexID(v))
		} else {
			old2new[v] = -1
		}
	}
	b := NewBuilder(len(new2old))
	for nv, ov := range new2old {
		b.SetCoord(VertexID(nv), g.xs[ov], g.ys[ov])
	}
	for ov, nv := range old2new {
		if nv < 0 {
			continue
		}
		ts, ws := g.Neighbors(VertexID(ov))
		for i, t := range ts {
			if nt := old2new[t]; nt >= 0 && nv < nt {
				b.AddEdge(nv, nt, ws[i])
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		// The induced subgraph of a valid graph is always valid.
		panic("roadnet: internal error building component: " + err.Error())
	}
	return sub, new2old
}
