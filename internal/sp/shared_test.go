package sp

import (
	"sync"
	"testing"

	"repro/internal/roadnet"
)

// The taxonomy's compile-time contracts.
var (
	_ SharedOracle = (*Matrix)(nil)
	_ SharedOracle = (*HubLabels)(nil)
	_ Oracle       = (*Dijkstra)(nil)
	_ Oracle       = (*Bidirectional)(nil)
	_ Oracle       = (*AStar)(nil)
	_ WorkerSource = (*ALT)(nil)
	_ WorkerSource = (*ArcFlags)(nil)
)

// TestSharedOraclesConcurrent exercises the SharedOracle guarantee under
// -race: Dist and Path from many goroutines at once, results always
// matching a single-threaded reference.
func TestSharedOraclesConcurrent(t *testing.T) {
	g, err := roadnet.Grid(roadnet.GridOptions{Rows: 7, Cols: 7, Spacing: 300, Jitter: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := NewMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	oracles := map[string]SharedOracle{
		"matrix":    mat,
		"hublabels": NewHubLabels(g),
	}
	n := g.N()
	for name, o := range oracles {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					ref := NewDijkstra(g) // per-goroutine engine, per the taxonomy
					state := seed
					for q := 0; q < 200; q++ {
						state = state*6364136223846793005 + 1442695040888963407
						u := roadnet.VertexID(uint64(state>>16) % uint64(n))
						v := roadnet.VertexID(uint64(state>>40) % uint64(n))
						if got, want := o.Dist(u, v), ref.Dist(u, v); got != want {
							t.Errorf("Dist(%d,%d) = %v, want %v", u, v, got, want)
							return
						}
						if q%23 == 0 && u != v {
							if p := o.Path(u, v); len(p) == 0 || p[0] != u || p[len(p)-1] != v {
								t.Errorf("Path(%d,%d) = %v", u, v, p)
								return
							}
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()
		})
	}
}
