package workload

import (
	"sort"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/sim"
)

// surge materialises a Surge day on g, failing the test on any error.
func surge(t *testing.T, g *roadnet.Graph, opt Options) []sim.Request {
	t.Helper()
	opt.Pattern = Surge
	gen, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	reqs := gen.All()
	if err := gen.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestSurgeBasicProperties(t *testing.T) {
	g := csvGraph(t)
	reqs := surge(t, g, Options{Trips: 1000, Seed: 2})
	if len(reqs) != 1000 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].Time < reqs[j].Time }) {
		t.Fatal("requests not sorted by time")
	}
	for i, r := range reqs {
		if r.Pickup == r.Dropoff {
			t.Fatalf("request %d: pickup == dropoff", i)
		}
		if r.Time < 0 || r.Time > 86400 {
			t.Fatalf("request %d: time %f outside horizon", i, r.Time)
		}
		if g.EuclideanDist(r.Pickup, r.Dropoff) < 1000 {
			t.Fatalf("request %d: trip shorter than MinTripMeters", i)
		}
	}
}

func TestSurgeDeterministic(t *testing.T) {
	g := csvGraph(t)
	a := surge(t, g, Options{Trips: 200, Seed: 3})
	b := surge(t, g, Options{Trips: 200, Seed: 3})
	if len(a) != len(b) {
		t.Fatalf("identical seeds gave %d and %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
	c := surge(t, g, Options{Trips: 200, Seed: 4})
	same := 0
	for i := range a {
		if a[i].Pickup == c[i].Pickup && a[i].Dropoff == c[i].Dropoff {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestSurgeRushHourShape(t *testing.T) {
	g := csvGraph(t)
	reqs := surge(t, g, Options{Trips: 5000, Seed: 5})
	// Bucket per hour; rush hours (8-9, 17-19) must beat the 2-4 AM trough.
	var byHour [24]int
	for _, r := range reqs {
		byHour[int(r.Time/3600)%24]++
	}
	trough := byHour[2] + byHour[3]
	morning := byHour[8] + byHour[9]
	evening := byHour[17] + byHour[18]
	if morning <= 2*trough || evening <= 2*trough {
		t.Fatalf("no rush-hour shape: trough=%d morning=%d evening=%d", trough, morning, evening)
	}
}

func TestSurgeHotspotClustering(t *testing.T) {
	g := csvGraph(t)
	clustered := surge(t, g, Options{Trips: 2000, Seed: 6, HotspotFrac: 0.9, Hotspots: 3, HotspotSigma: 300})
	uniform := surge(t, g, Options{Trips: 2000, Seed: 6, HotspotFrac: 1e-9})
	// Clustered workloads reuse far fewer distinct pickup vertices.
	distinct := func(reqs []sim.Request) int {
		m := map[roadnet.VertexID]bool{}
		for _, r := range reqs {
			m[r.Pickup] = true
		}
		return len(m)
	}
	dc, du := distinct(clustered), distinct(uniform)
	if float64(dc) > 0.8*float64(du) {
		t.Fatalf("clustering ineffective: %d distinct clustered vs %d uniform", dc, du)
	}
}

// TestSurgeValidation: a Surge day with no size is refused up front, and
// one whose city cannot hold a valid trip ends its stream with Err.
func TestSurgeValidation(t *testing.T) {
	g := csvGraph(t)
	if _, err := New(g, Options{Pattern: Surge, Trips: 0}); err == nil {
		t.Fatal("expected error for zero trips")
	}
	small, err := roadnet.Grid(roadnet.GridOptions{Rows: 2, Cols: 2, Spacing: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 10 m blocks cannot yield 1,000 m trips.
	gen, err := New(small, Options{Pattern: Surge, Trips: 10})
	if err != nil {
		t.Fatal(err)
	}
	if reqs := gen.All(); len(reqs) != 0 || gen.Err() == nil {
		t.Fatalf("unsatisfiable minimum trip length: %d requests, Err %v", len(reqs), gen.Err())
	}
}
