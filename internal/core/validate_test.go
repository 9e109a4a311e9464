package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// TestValidateOrderRejects enumerates each way a schedule can be invalid and
// checks ValidateOrder reports it.
func TestValidateOrderRejects(t *testing.T) {
	w := newTestWorld(t, 41)
	d := func(u, v roadnet.VertexID) float64 { return w.oracle.Dist(u, v) }

	mk := func() *Instance {
		inst := &Instance{Origin: 0, Odo: 100}
		ts := TripState{
			ID: 1, Pickup: 5, Dropoff: 30,
			ShortestLen:  d(5, 30),
			MaxRide:      1.2 * d(5, 30),
			WaitDeadline: 100 + d(0, 5) + 500,
		}
		inst.Trips = []TripState{ts}
		return inst
	}
	pick := Stop{Trip: 0, Kind: Pickup, Vertex: 5}
	drop := Stop{Trip: 0, Kind: Dropoff, Vertex: 30}

	cases := []struct {
		name    string
		mutate  func(inst *Instance) []Stop
		errPart string
	}{
		{
			name:    "valid",
			mutate:  func(*Instance) []Stop { return []Stop{pick, drop} },
			errPart: "",
		},
		{
			name:    "missing stop",
			mutate:  func(*Instance) []Stop { return []Stop{pick} },
			errPart: "missing",
		},
		{
			name:    "duplicate stop",
			mutate:  func(*Instance) []Stop { return []Stop{pick, pick, drop} },
			errPart: "duplicate",
		},
		{
			name:    "dropoff before pickup",
			mutate:  func(*Instance) []Stop { return []Stop{drop, pick} },
			errPart: "violates",
		},
		{
			name: "waiting deadline exceeded",
			mutate: func(inst *Instance) []Stop {
				inst.Trips[0].WaitDeadline = 100 + d(0, 5)/2
				return []Stop{pick, drop}
			},
			errPart: "violates",
		},
		{
			name: "ride budget exceeded",
			mutate: func(inst *Instance) []Stop {
				inst.Trips[0].MaxRide = d(5, 30) / 2
				return []Stop{pick, drop}
			},
			errPart: "violates",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := mk()
			order := tc.mutate(inst)
			cost, err := ValidateOrder(inst, w.oracle, order)
			if tc.errPart == "" {
				if err != nil {
					t.Fatalf("valid schedule rejected: %v", err)
				}
				want := d(0, 5) + d(5, 30)
				if math.Abs(cost-want) > 1e-9 {
					t.Fatalf("cost %v, want %v", cost, want)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid schedule accepted (cost %v)", cost)
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

// TestOnboardDropDeadline checks the onboard branch of the walker.
func TestOnboardDropDeadline(t *testing.T) {
	w := newTestWorld(t, 42)
	d := w.oracle.Dist(0, 30)
	inst := &Instance{Origin: 0, Odo: 0}
	inst.Trips = []TripState{{
		ID: 1, Pickup: 5, Dropoff: 30,
		ShortestLen: d, MaxRide: 1.5 * d,
		OnBoard: true, DropDeadline: d - 1, // one meter too tight
	}}
	order := []Stop{{Trip: 0, Kind: Dropoff, Vertex: 30}}
	if _, err := ValidateOrder(inst, w.oracle, order); err == nil {
		t.Fatal("accepted dropoff past DropDeadline")
	}
	inst.Trips[0].DropDeadline = d + 1
	if _, err := ValidateOrder(inst, w.oracle, order); err != nil {
		t.Fatalf("rejected feasible dropoff: %v", err)
	}
}

// TestNewTripStateErrors covers the unreachable-dropoff path.
func TestNewTripStateErrors(t *testing.T) {
	b := roadnet.NewBuilder(3)
	b.SetCoord(0, 0, 0)
	b.SetCoord(1, 1, 0)
	b.SetCoord(2, 9, 9)
	b.AddEdge(0, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.NewMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTripState(1, 0, 2, 100, 0.2, 0, m); err == nil {
		t.Fatal("expected error for unreachable dropoff")
	}
	ts, err := NewTripState(1, 0, 1, 100, 0.2, 50, m)
	if err != nil {
		t.Fatal(err)
	}
	if ts.WaitDeadline != 150 {
		t.Fatalf("WaitDeadline %v, want 150", ts.WaitDeadline)
	}
	// 1.2 m rounded down to the road network's 1/256 m grid.
	if ts.MaxRide != 1.19921875 {
		t.Fatalf("MaxRide %v, want 1.19921875", ts.MaxRide)
	}
	ts.MarkPickedUp(200)
	if !ts.OnBoard || ts.DropDeadline != 200+1.19921875 {
		t.Fatalf("MarkPickedUp: %+v", ts)
	}
}

// TestSchedulerCostsAreOrderWalks is a quick property: for any random
// feasible instance, the cost each scheduler reports equals walking its own
// order with ValidateOrder (no scheduler may misreport its cost).
func TestSchedulerCostsAreOrderWalks(t *testing.T) {
	w := newTestWorld(t, 43)
	rng := rand.New(rand.NewSource(44))
	schedulers := []Scheduler{
		NewBruteForce(w.oracle),
		NewBranchBound(w.oracle),
		NewMIPScheduler(w.oracle, 100000),
		NewTreeScheduler(w.oracle, TreeOptions{Slack: true}),
		NewTreeScheduler(w.oracle, TreeOptions{Slack: true, HotspotTheta: 500}),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := w.randomInstance(r, 1+r.Intn(3), 2+r.Intn(3))
		for _, s := range schedulers {
			res := s.Schedule(inst)
			if !res.OK {
				continue
			}
			walked, err := ValidateOrder(inst, w.oracle, res.Order)
			if err != nil {
				t.Logf("%s: invalid order: %v", s.Name(), err)
				return false
			}
			if math.Abs(walked-res.Cost) > 1e-4 {
				t.Logf("%s: cost %v != walked %v", s.Name(), res.Cost, walked)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFixedDeadlineReduction checks the §VII reduction: a trip built from a
// completion deadline is served iff dropoff occurs by that deadline, for
// any valid schedule.
func TestFixedDeadlineReduction(t *testing.T) {
	w := newTestWorld(t, 45)
	d := w.oracle.Dist(3, 44)
	const eps = 0.25
	deadline := 2*d + (1+eps)*d // room for some pickup delay

	ts, err := NewTripStateWithDeadline(1, 3, 44, deadline, eps, 0, w.oracle)
	if err != nil {
		t.Fatal(err)
	}
	wantWait := WaitForDeadline(deadline, eps, d)
	if math.Abs(ts.WaitDeadline-wantWait) > 1e-9 {
		t.Fatalf("WaitDeadline %v, want %v", ts.WaitDeadline, wantWait)
	}
	// Worst valid schedule: picked up exactly at the wait deadline, ridden
	// for exactly MaxRide — completes by the deadline, and short of it by
	// at most the two budgets' rounding down to the 1/256 m grid.
	if got := ts.WaitDeadline + ts.MaxRide; got > deadline || deadline-got > 2*roadnet.Resolution {
		t.Fatalf("worst-case completion %v, want within %v below deadline %v", got, 2*roadnet.Resolution, deadline)
	}
	// Unmeetable deadline is rejected.
	if _, err := NewTripStateWithDeadline(2, 3, 44, (1+eps)*d/2, eps, 0, w.oracle); err == nil {
		t.Fatal("accepted an unmeetable deadline")
	}
}
