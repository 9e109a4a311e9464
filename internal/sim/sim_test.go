package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/roadnet"
	"repro/internal/sp"
)

// testSetup builds a small city and an exact cached oracle shared by the
// worker-level tests. (Whole-run tests live in internal/dispatch, which
// owns the matching loop.)
func testSetup(t testing.TB) (*roadnet.Graph, sp.Oracle) {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 20, Cols: 20, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, DropFrac: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g, cache.NewSharedDefault(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N()).NewWorker()
}
