package sim

import (
	"math"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// idleVehicle is a one-vehicle fleet driven directly through its Worker,
// the way the dispatch engine's shards drive theirs.
type idleVehicle struct {
	g      *roadnet.Graph
	oracle sp.Oracle
	w      *Worker
	v      *Vehicle
	m      *Metrics
}

func newIdleVehicle(t *testing.T, algo Algorithm) idleVehicle {
	t.Helper()
	g, oracle := testSetup(t)
	cfg := Config{Graph: g, Oracle: oracle, Servers: 1, Capacity: 4, Algorithm: algo, Seed: 3}
	m := NewMetrics()
	w := NewWorker(cfg, oracle, m)
	return idleVehicle{g: g, oracle: oracle, w: w, v: w.NewVehicle(0, Placements(cfg)[0].Loc), m: m}
}

// TestCruiseConsumesBudget: an idle vehicle moves at roadnet.Speed and its
// odometer tracks elapsed time.
func TestCruiseConsumesBudget(t *testing.T) {
	s := newIdleVehicle(t, AlgoTreeSlack)
	v := s.v
	s.w.AdvanceTo(v, 100) // 100 seconds = 1400 m of driving budget
	if v.odo > 100*roadnet.Speed+1e-6 {
		t.Fatalf("odometer %v exceeds budget %v", v.odo, 100*roadnet.Speed)
	}
	// Vertex-granular motion can leave at most one edge of slack.
	maxEdge := 0.0
	ts, ws := s.g.Neighbors(v.loc)
	for i := range ts {
		maxEdge = math.Max(maxEdge, ws[i])
	}
	if v.odo < 100*roadnet.Speed-2*maxEdge {
		t.Fatalf("odometer %v too small for 100s of cruising", v.odo)
	}
	if v.clock != 100 {
		t.Fatalf("clock %v, want 100", v.clock)
	}
}

// TestAdvanceToIsMonotonic: advancing to an earlier time is a no-op.
func TestAdvanceToIsMonotonic(t *testing.T) {
	s := newIdleVehicle(t, AlgoTreeSlack)
	v := s.v
	s.w.AdvanceTo(v, 50)
	odo := v.odo
	s.w.AdvanceTo(v, 10)
	if v.odo != odo || v.clock != 50 {
		t.Fatal("AdvanceTo went backwards")
	}
}

// TestServeDeliversPassenger: commit one request near the vehicle and drive
// until both stops are served; accounting must record the wait and ride.
func TestServeDeliversPassenger(t *testing.T) {
	for _, algo := range []Algorithm{AlgoTreeBasic, AlgoTreeSlack} {
		s := newIdleVehicle(t, algo)
		v := s.v
		// Pick stops reachable well within the waiting budget.
		pickup := v.loc
		var dropoff roadnet.VertexID
		for d := 0; d < s.g.N(); d++ {
			dd := s.oracle.Dist(pickup, roadnet.VertexID(d))
			if dd > 1500 && dd < 4000 {
				dropoff = roadnet.VertexID(d)
				break
			}
		}
		req := Request{ID: 7, Time: 1, Pickup: pickup, Dropoff: dropoff}
		waitMeters, eps := s.w.Budget(req)
		px, py := s.g.Coord(req.Pickup)
		s.w.AdvanceTo(v, req.Time)
		tr, ok := s.w.Trial(v, req, px, py, waitMeters, eps)
		if !ok {
			t.Fatalf("%v: the only vehicle cannot serve a request at its own position", algo)
		}
		s.w.Commit(v, tr)
		s.w.AdvanceTo(v, 4000) // plenty of time to finish
		if v.Busy() {
			t.Fatalf("%v: vehicle still busy after an hour", algo)
		}
		if s.m.Matched != 1 || s.m.Completed != 1 {
			t.Fatalf("%v: matched=%d completed=%d", algo, s.m.Matched, s.m.Completed)
		}
		if s.m.Violations != 0 {
			t.Fatalf("%v: violations=%d", algo, s.m.Violations)
		}
		if s.m.TotalRideMeters <= 0 || s.m.TotalWaitMeters < 0 {
			t.Fatalf("%v: accounting wait=%v ride=%v", algo, s.m.TotalWaitMeters, s.m.TotalRideMeters)
		}
	}
}

// TestMetricsARTBuckets checks bucket bookkeeping.
func TestMetricsARTBuckets(t *testing.T) {
	m := NewMetrics()
	m.AddART(0, 100)
	m.AddART(0, 300)
	m.AddART(2, 500)
	if d, n := m.ART(0); n != 2 || d != 200 {
		t.Fatalf("ART(0) = %v, %d", d, n)
	}
	if d, n := m.ART(1); n != 0 || d != 0 {
		t.Fatalf("ART(1) = %v, %d", d, n)
	}
	buckets := m.ARTBuckets()
	if len(buckets) != 2 || buckets[0] != 0 || buckets[1] != 2 {
		t.Fatalf("buckets %v", buckets)
	}
	if m.TrialCalls != 3 {
		t.Fatalf("TrialCalls=%d", m.TrialCalls)
	}
}

// TestOccupancyStats checks the top-20% computation.
func TestOccupancyStats(t *testing.T) {
	m := NewMetrics()
	for _, p := range []int{1, 1, 1, 1, 2, 2, 3, 3, 4, 17} {
		m.AddOccupancy(p)
	}
	max, mean, top := m.OccupancyStats()
	if max != 17 {
		t.Fatalf("max=%d", max)
	}
	if math.Abs(mean-3.5) > 1e-9 {
		t.Fatalf("mean=%v", mean)
	}
	// ceil(20% of 10) = 2 servers: 17 and 4 -> 10.5.
	if math.Abs(top-10.5) > 1e-9 {
		t.Fatalf("top20=%v", top)
	}
	empty := NewMetrics()
	if a, b, c := empty.OccupancyStats(); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty occupancy stats not zero")
	}
}

// TestSnapshotRoundTrip checks the JSON view mirrors the metrics.
func TestSnapshotRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Requests = 10
	m.Matched = 8
	m.Rejected = 2
	m.Completed = 8
	m.AddACRT(1000)
	m.AddART(3, 500)
	m.AddOccupancy(2)
	m.AddOccupancy(4)
	s := m.Snapshot(nil)
	if s.Requests != 10 || s.Matched != 8 || s.Rejected != 2 {
		t.Fatalf("counts: %+v", s)
	}
	if s.ACRTNanos != 100 {
		t.Fatalf("acrt %d, want 100 (1000ns over 10 requests)", s.ACRTNanos)
	}
	if len(s.ART) != 1 || s.ART[0].Requests != 3 || s.ART[0].Samples != 1 {
		t.Fatalf("art: %+v", s.ART)
	}
	if s.OccupancyMax != 4 || s.OccupancyMean != 3 {
		t.Fatalf("occupancy: %+v", s)
	}
}
