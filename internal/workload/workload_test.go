package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/roadnet"
)

func testGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 20, Cols: 20, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

// TestStreamDeterministic: the same options must produce the identical
// stream request for request — the property multi-producer reproducibility
// rests on.
func TestStreamDeterministic(t *testing.T) {
	g := testGraph(t)
	for _, p := range []Pattern{Poisson, Surge, Hotspot} {
		opt := Options{Pattern: p, Trips: 300, Seed: 11}
		a, err := New(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := a.All(), b.All()
		if len(ra) == 0 || len(ra) != len(rb) {
			t.Fatalf("%v: stream lengths %d vs %d", p, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%v: request %d diverges: %+v vs %+v", p, i, ra[i], rb[i])
			}
		}
	}
}

// TestStreamShape: times are strictly increasing within the horizon, IDs
// sequential, endpoints valid and far enough apart.
func TestStreamShape(t *testing.T) {
	g := testGraph(t)
	for _, p := range []Pattern{Poisson, Surge, Hotspot} {
		gen, err := New(g, Options{Pattern: p, Trips: 400, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		last := math.Inf(-1)
		n := 0
		for {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if req.Time <= last {
				t.Fatalf("%v: time went backwards: %v after %v", p, req.Time, last)
			}
			last = req.Time
			if req.Time < 0 || req.Time > 86400 {
				t.Fatalf("%v: time %v outside horizon", p, req.Time)
			}
			if req.ID != int64(n) {
				t.Fatalf("%v: ID %d at position %d", p, req.ID, n)
			}
			if int(req.Pickup) >= g.N() || int(req.Dropoff) >= g.N() || req.Pickup == req.Dropoff {
				t.Fatalf("%v: bad endpoints %d -> %d", p, req.Pickup, req.Dropoff)
			}
			if g.EuclideanDist(req.Pickup, req.Dropoff) < 1000 {
				t.Fatalf("%v: trip below MinTripMeters", p)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%v: empty stream", p)
		}
		// Exhausted generators stay exhausted.
		if _, ok := gen.Next(); ok {
			t.Fatalf("%v: stream resumed after ending", p)
		}
	}
}

// TestSurgeConcentratesInPeaks: the surge stream must put substantially
// more demand into the rush-hour windows than a uniform process would —
// the property rushhour-style scenarios rely on.
func TestSurgeConcentratesInPeaks(t *testing.T) {
	g := testGraph(t)
	gen, err := New(g, Options{Pattern: Surge, Rate: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	inPeak, total := 0, 0
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		h := req.Time / 3600
		if (h >= 7 && h <= 10) || (h >= 16 && h <= 20) {
			inPeak++
		}
		total++
	}
	if total < 500 {
		t.Fatalf("surge stream too short: %d", total)
	}
	// The two windows cover 7/24 ≈ 29%% of the day; the double-peak curve
	// concentrates well over half the demand there.
	if frac := float64(inPeak) / float64(total); frac < 0.5 {
		t.Fatalf("only %.0f%% of surge demand in rush-hour windows", frac*100)
	}
}

// TestHotspotConcentratesPickups: the hotspot pattern must cluster
// pickups far more tightly than dropoffs.
func TestHotspotConcentratesPickups(t *testing.T) {
	g := testGraph(t)
	gen, err := New(g, Options{Pattern: Hotspot, Trips: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	reqs := gen.All()
	if len(reqs) < 400 {
		t.Fatalf("stream too short: %d", len(reqs))
	}
	pickups := make(map[roadnet.VertexID]int)
	dropoffs := make(map[roadnet.VertexID]int)
	for _, r := range reqs {
		pickups[r.Pickup]++
		dropoffs[r.Dropoff]++
	}
	if len(pickups)*2 >= len(dropoffs) {
		t.Fatalf("pickups hit %d distinct vertices vs %d dropoffs — not clustered",
			len(pickups), len(dropoffs))
	}
}

// TestRateDerivation: a Trips-capped stream with no explicit rate spans
// most of the horizon instead of front-loading.
func TestRateDerivation(t *testing.T) {
	g := testGraph(t)
	gen, err := New(g, Options{Pattern: Poisson, Trips: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := gen.All()
	if len(reqs) == 0 {
		t.Fatal("empty stream")
	}
	if last := reqs[len(reqs)-1].Time; last < 86400/4 {
		t.Fatalf("300 trips ended at t=%.0f — rate not derived from horizon", last)
	}
}

// TestOptionValidation covers constructor misuse: no size, and a horizon
// or rate that is not a finite number (a NaN horizon never accepts a
// Surge arrival, a negative one writes negative times).
func TestOptionValidation(t *testing.T) {
	g := testGraph(t)
	for _, opt := range []Options{
		{Pattern: Poisson},
		{Pattern: Surge, Trips: 10, HorizonSeconds: math.NaN()},
		{Pattern: Surge, Trips: 10, HorizonSeconds: math.Inf(1)},
		{Pattern: Surge, Trips: 10, HorizonSeconds: math.Inf(-1)},
		{Pattern: Surge, Trips: 10, HorizonSeconds: -3600},
		{Pattern: Poisson, Trips: 10, HorizonSeconds: -3600},
		{Pattern: Surge, Rate: math.NaN()},
		{Pattern: Poisson, Rate: math.Inf(1)},
		{Pattern: Surge, Trips: 10, Rate: math.Inf(-1)},
	} {
		if _, err := New(g, opt); err == nil {
			t.Errorf("%+v accepted", opt)
		}
	}
	if _, err := ParsePattern("rush"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	for _, p := range []Pattern{Poisson, Surge, Hotspot} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
}

// TestSamplingExhaustionReported: when the spatial mix cannot produce a
// valid trip (every vertex pair shorter than MinTripMeters), the stream
// must end with a non-nil Err instead of masquerading as a normal horizon
// ending.
func TestSamplingExhaustionReported(t *testing.T) {
	g := testGraph(t)
	gen, err := New(g, Options{Pattern: Poisson, Trips: 50, Seed: 3, MinTripMeters: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if reqs := gen.All(); len(reqs) != 0 {
		t.Fatalf("impossible mix emitted %d requests", len(reqs))
	}
	if gen.Err() == nil {
		t.Fatal("sampling exhaustion not reported via Err")
	}
	// The normal endings stay err-free.
	ok, err := New(g, Options{Pattern: Poisson, Trips: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The Poisson process may run out the horizon under the Trips cap;
	// either way the ending is normal.
	if n := len(ok.All()); n == 0 {
		t.Fatal("normal stream emitted nothing")
	}
	if err := ok.Err(); err != nil {
		t.Fatalf("normal ending reported %v", err)
	}
}

// TestSurgeStreamPinned pins the two replayed days the experiments run on
// the scale-0.002 city of seed 7 — exp.BuildWorld's and Fig. 9c-stress's —
// by a SHA-256 over every request's (ID, time bits, pickup, dropoff). The
// digests were taken from the materialising generator Surge replaced, so
// a change here changes every replayed experiment and golden run.
func TestSurgeStreamPinned(t *testing.T) {
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  Options
		n    int
		want string
	}{
		{"buildworld", Options{Pattern: Surge, Trips: 864, HorizonSeconds: 86400, Seed: 8}, 864,
			"93c59a702ab9932da3e6a9568b4ef39e49ef99d11884e7f3b145f5454d1a1953"},
		{"fig9cstress", Options{Pattern: Surge, Trips: 600, HorizonSeconds: 3600, Hotspots: 3,
			HotspotSigma: 250, HotspotFrac: 0.95, Seed: 99}, 600,
			"46e17f7540133c1a55913199aec29f81e1d2601d1af6e5e365474510a1fa284a"},
	} {
		gen, err := New(g, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		reqs := gen.All()
		if err := gen.Err(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		var b [24]byte
		for _, r := range reqs {
			binary.LittleEndian.PutUint64(b[0:], uint64(r.ID))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Time))
			binary.LittleEndian.PutUint32(b[16:], uint32(r.Pickup))
			binary.LittleEndian.PutUint32(b[20:], uint32(r.Dropoff))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); len(reqs) != c.n || got != c.want {
			t.Errorf("%s: %d requests, digest %s; want %d, %s", c.name, len(reqs), got, c.n, c.want)
		}
	}
}
