package sp

import (
	"repro/internal/roadnet"
)

// AStar is the shared search bounded by the Euclidean distance between
// vertex coordinates. The generators in internal/roadnet guarantee edge
// weights are at least the Euclidean length between their endpoints, so the
// bound is admissible and consistent and A* returns exact shortest paths
// for those graphs. For arbitrary graphs the caller must ensure that.
//
// Not safe for concurrent use.
type AStar struct{ searcher }

// NewAStar returns an A* engine for g.
func NewAStar(g *roadnet.Graph) *AStar {
	return &AStar{newSearcher(g, g.EuclideanDist)}
}
