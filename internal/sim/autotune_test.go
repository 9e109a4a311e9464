package sim

import (
	"testing"

	"repro/internal/roadnet"
)

// lineGraph builds a graph whose vertices lie at the given coordinates,
// chained by unit edges so Build accepts it.
func lineGraph(t *testing.T, coords [][2]float64) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(0)
	for _, c := range coords {
		b.AddVertex(c[0], c[1])
	}
	for i := 1; i < len(coords); i++ {
		b.AddEdge(roadnet.VertexID(i-1), roadnet.VertexID(i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestDeriveCellSizeDeterministic(t *testing.T) {
	g, _ := testSetup(t)
	for _, servers := range []int{1, 10, 500, 10000, 100000} {
		a := DeriveCellSize(g, servers)
		b := DeriveCellSize(g, servers)
		if a != b {
			t.Fatalf("servers=%d: DeriveCellSize not deterministic: %v vs %v", servers, a, b)
		}
		if a < AutoMinCellSize || a > AutoMaxCellSize {
			t.Fatalf("servers=%d: cell size %v outside [%v, %v]", servers, a, AutoMinCellSize, AutoMaxCellSize)
		}
	}
	// Bigger fleets on the same map must get same-or-smaller cells.
	if small, big := DeriveCellSize(g, 100), DeriveCellSize(g, 100000); big > small {
		t.Fatalf("cell size grew with fleet: %v (100 veh) < %v (100k veh)", small, big)
	}
}

func TestDeriveCellSizeDegenerateExtents(t *testing.T) {
	cases := []struct {
		name   string
		coords [][2]float64
	}{
		{"single vertex", [][2]float64{{5, -3}}},
		{"coincident vertices", [][2]float64{{2, 2}, {2, 2}, {2, 2}}},
		{"horizontal line", [][2]float64{{0, 7}, {4000, 7}, {9000, 7}}},
		{"vertical line", [][2]float64{{-1, 0}, {-1, 2500}}},
	}
	for _, tc := range cases {
		g := lineGraph(t, tc.coords)
		for _, servers := range []int{1, 3, 1000} {
			c := DeriveCellSize(g, servers)
			if c <= 0 {
				t.Errorf("%s, servers=%d: non-positive cell size %v", tc.name, servers, c)
			}
		}
	}
	if c := DeriveCellSize(nil, 100); c != DefaultCellSize {
		t.Errorf("nil graph: got %v, want default %v", c, DefaultCellSize)
	}
	if c := DeriveCellSize(lineGraph(t, [][2]float64{{0, 0}, {1, 1}}), 0); c != DefaultCellSize {
		t.Errorf("zero servers: got %v, want default %v", c, DefaultCellSize)
	}
}

func TestDeriveShards(t *testing.T) {
	cases := []struct {
		servers, workers, want int
	}{
		{100, 1, 1},        // small fleet: one shard per worker
		{100, 4, 4},        // never fewer shards than workers
		{10000, 1, 3},      // ceil(10000/4096) = 3 > 1 worker
		{100000, 4, 16},    // ceil(100000/4096) = 25, capped at 4x workers
		{100000, 8, 25},    // 25 fits under 32
		{2, 8, 2},          // never more shards than vehicles
		{0, 0, 1},          // degenerate: still at least one shard
		{1, -3, 1},         // negative workers treated as 1
		{4096 * 3, 1, 3},   // exact multiples
		{4096*3 + 1, 1, 4}, // round up
	}
	for _, tc := range cases {
		if got := DeriveShards(tc.servers, tc.workers); got != tc.want {
			t.Errorf("DeriveShards(%d, %d) = %d, want %d", tc.servers, tc.workers, got, tc.want)
		}
		if again := DeriveShards(tc.servers, tc.workers); again != DeriveShards(tc.servers, tc.workers) {
			t.Errorf("DeriveShards(%d, %d) not deterministic", tc.servers, tc.workers)
		}
	}
}

// TestAutoTuneRespectsOverrides checks that an explicitly configured cell
// size always beats derivation, and that AutoTune off keeps the static
// default. (The engine surfaces the resolved values in Metrics; see
// internal/dispatch TestTuningSurfaced.)
func TestAutoTuneRespectsOverrides(t *testing.T) {
	g, oracle := testSetup(t)
	for _, tc := range []struct {
		name string
		cfg  Config
		want float64
	}{
		{"explicit", Config{Graph: g, Servers: 50, AutoTune: true, CellSize: 123}, 123},
		{"derived", Config{Graph: g, Servers: 50, AutoTune: true}, DeriveCellSize(g, 50)},
		{"off", Config{Graph: g, Servers: 50}, DefaultCellSize},
	} {
		if got := NewWorker(tc.cfg, oracle, NewMetrics()).CellSize(); got != tc.want {
			t.Errorf("%s: cell size %v, want %v", tc.name, got, tc.want)
		}
	}
}
