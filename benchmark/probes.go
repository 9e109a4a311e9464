package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// probeResults are the stand-alone layer timings (source P): each probe
// calls one layer's public functions directly, on the workload's city and
// seed, so a layer has a number that no other layer's cost can leak into.
type probeResults struct {
	faninNs                      float64
	advanceIdleNs, advanceBusyNs float64
	insertUs                     map[int]float64 // by waiting trips on the tree
	setlocUs                     float64
	withinNs, candidates         float64
	updateNs, crossingFrac       float64
	searchUs, pathUs             float64
}

// Probe sizes: large enough that a probe's mean is steady, small enough that
// all of them together stay a few seconds per workload.
const (
	probeFaninRequests  = 50000
	probeVehicles       = 200
	probeReports        = 20
	probeTreeCount      = 30
	probeInsertsPerTree = 60
	probeGridQueries    = 4000
	probeGridRounds     = 10
	probePairs          = 1500
	probePaths          = 300
	// probeCityScale sizes the city of the tree probes: small enough for
	// sp.Matrix (Floyd-Warshall), which is what takes search out of them,
	// and the paper's default constraints (10 minutes, 20%).
	probeCityScale  = 0.004
	probeWaitMeters = 600 * roadnet.Speed
	probeEpsilon    = 0.2
)

func runProbes(w workloadSpec, seed int64) (probeResults, error) {
	var pr probeResults
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: w.Scale, Seed: citySeed})
	if err != nil {
		return pr, err
	}
	rng := rand.New(rand.NewSource(seed))
	pr.faninNs = probeFanin(w)
	pr.advanceIdleNs, pr.advanceBusyNs = probeAdvance(w, g, rng)
	if err := probeTrees(&pr, rng); err != nil {
		return pr, err
	}
	if err := probeGrid(&pr, w, g, seed, rng); err != nil {
		return pr, err
	}
	if err := probeSearch(&pr, w, g, seed, rng); err != nil {
		return pr, err
	}
	return pr, nil
}

// probeFanin times the gateway alone: the run's submit protocol into a
// no-op sink.
func probeFanin(w workloadSpec) float64 {
	gw := ingest.New(ingest.Config{Queues: w.Workers, Policy: ingest.Block, WaitSeconds: w.WaitSeconds})
	p := gw.Producers(1)[0]
	start := time.Now()
	go func() {
		for i := 0; i < probeFaninRequests; i++ {
			submitNow(p, sim.Request{ID: int64(i), Time: float64(i)})
		}
		p.Close()
	}()
	gw.Drain(func(sim.Request) {})
	return float64(time.Since(start).Nanoseconds()) / probeFaninRequests
}

// probeAdvance times fleet motion: Worker.AdvanceTo over one report interval
// for idle (cruising) vehicles and for vehicles driving committed trips,
// whose every vertex step re-roots a kinetic tree through the oracle.
func probeAdvance(w workloadSpec, g *roadnet.Graph, rng *rand.Rand) (idleNs, busyNs float64) {
	cfg := sim.Config{
		Graph: g, Servers: probeVehicles, Capacity: w.Capacity,
		WaitSeconds: w.WaitSeconds, Epsilon: w.Epsilon, Algorithm: sim.AlgoTreeSlack,
	}
	// The production layering at a small capacity: this probe times
	// motion, and must not pay for a second ten-million-entry table.
	shared := cache.NewShared(func() sp.Oracle { return sp.NewBidirectional(g) }, g.N(), 1<<18, 1<<10, 0)
	worker := sim.NewWorker(cfg, shared.NewWorker(), sim.NewMetrics())
	n := int32(g.N())

	vehicles := make([]*sim.Vehicle, probeVehicles)
	for i := range vehicles {
		vehicles[i] = worker.NewVehicle(i, roadnet.VertexID(rng.Int31n(n)))
	}
	start := time.Now()
	for step := 1; step <= probeReports; step++ {
		for _, v := range vehicles {
			worker.AdvanceTo(v, float64(step)*reportInterval)
		}
	}
	idleNs = float64(time.Since(start).Nanoseconds()) / float64(probeVehicles*probeReports)

	// Give every vehicle up to two trips it can serve, then drive them.
	now := float64(probeReports) * reportInterval
	waitMeters := w.WaitSeconds * roadnet.Speed
	id := int64(0)
	for _, v := range vehicles {
		for trips, tries := 0, 0; trips < 2 && tries < 40; tries++ {
			pickup, dropoff := roadnet.VertexID(rng.Int31n(n)), roadnet.VertexID(rng.Int31n(n))
			if pickup == dropoff || g.EuclideanDist(v.Loc(), pickup) > waitMeters {
				continue
			}
			px, py := g.Coord(pickup)
			req := sim.Request{ID: id, Time: now, Pickup: pickup, Dropoff: dropoff}
			id++
			if tr, ok := worker.Trial(v, req, px, py, waitMeters, w.Epsilon); ok {
				worker.Commit(v, tr)
				trips++
			}
		}
	}
	reports := 0
	start = time.Now()
	for step := 1; step <= 200; step++ { // 100 simulated minutes: every trip ends first
		busy := false
		for _, v := range vehicles {
			if v.Busy() {
				worker.AdvanceTo(v, now+float64(step)*reportInterval)
				reports++
				busy = true
			}
		}
		if !busy {
			break
		}
	}
	busyNs = ratio(float64(time.Since(start).Nanoseconds()), float64(reports))
	return idleNs, busyNs
}

// probeTrees times kinetic-tree logic alone: TrialInsert and SetLocation on
// prepared trees over an all-pairs matrix, so no shortest-path search runs
// inside the timed calls. The city is a fixed small one (sp.Matrix is cubic
// to build); tree cost depends on the trips held, not on the map size.
func probeTrees(pr *probeResults, rng *rand.Rand) error {
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: probeCityScale, Seed: citySeed})
	if err != nil {
		return err
	}
	m, err := sp.NewMatrix(g)
	if err != nil {
		return err
	}
	n := int32(g.N())
	nextID := int64(0)
	// randomTrip draws a trip whose pickup the vehicle at loc can reach
	// within the waiting budget.
	randomTrip := func(loc roadnet.VertexID) (core.TripState, bool) {
		for tries := 0; tries < 100; tries++ {
			pickup, dropoff := roadnet.VertexID(rng.Int31n(n)), roadnet.VertexID(rng.Int31n(n))
			if pickup == dropoff || m.Dist(loc, pickup) > probeWaitMeters || m.Dist(pickup, dropoff) < 1000 {
				continue
			}
			nextID++
			ts, err := core.NewTripState(nextID, pickup, dropoff, probeWaitMeters, probeEpsilon, 0, m)
			return ts, err == nil
		}
		return core.TripState{}, false
	}
	// prepared returns a tree holding k waiting trips, or nil if the random
	// neighbourhood could not hold that many.
	prepared := func(k int) *core.Tree {
		loc := roadnet.VertexID(rng.Int31n(n))
		t := core.NewTree(m, loc, 0, core.TreeOptions{Slack: true, Capacity: 4, MaxTreeNodes: 200000})
		for tries := 0; t.ActiveTrips() < k && tries < 50*(k+1); tries++ {
			trip, ok := randomTrip(loc)
			if !ok {
				continue
			}
			if cand, ok, _ := t.TrialInsert(trip); ok {
				t.Commit(cand)
			}
		}
		if t.ActiveTrips() < k {
			return nil
		}
		return t
	}

	pr.insertUs = map[int]float64{}
	for _, k := range []int{0, 2, 4, 6} {
		var total time.Duration
		inserts := 0
		for trees, tries := 0, 0; trees < probeTreeCount && tries < 20*probeTreeCount; tries++ {
			t := prepared(k)
			if t == nil {
				continue
			}
			trees++
			for i := 0; i < probeInsertsPerTree; i++ {
				trip, ok := randomTrip(t.Loc())
				if !ok {
					continue
				}
				start := time.Now()
				cand, ok, _ := t.TrialInsert(trip)
				total += time.Since(start)
				inserts++
				if ok {
					cand.Release()
				}
			}
		}
		if inserts == 0 {
			return fmt.Errorf("tree probe: no insertions at k=%d", k)
		}
		pr.insertUs[k] = float64(total.Nanoseconds()) / float64(inserts) / 1e3
	}

	var total time.Duration
	steps := 0
	for trees, tries := 0, 0; trees < 2*probeTreeCount && tries < 40*probeTreeCount; tries++ {
		t := prepared(4)
		if t == nil {
			continue
		}
		trees++
		path := m.Path(t.Loc(), t.NextStops()[0].Vertex)
		odo := 0.0
		for i := 1; i+1 < len(path); i++ { // stop short of the stop itself
			ew, _ := g.EdgeWeight(path[i-1], path[i])
			odo += ew
			start := time.Now()
			t.SetLocation(path[i], odo)
			total += time.Since(start)
			steps++
		}
	}
	pr.setlocUs = ratio(float64(total.Nanoseconds()), float64(steps)) / 1e3
	return nil
}

// probeGrid times the spatial index at the workload's fleet size, auto-tuned
// cell and candidate radius: reads as the matcher issues them, writes as
// position reports do.
func probeGrid(pr *probeResults, w workloadSpec, g *roadnet.Graph, seed int64, rng *rand.Rand) error {
	cfg := sim.Config{Graph: g, Servers: w.Fleet, Seed: fleetSeed(seed)}
	minX, minY, maxX, maxY := g.Bounds()
	grid, err := spatial.NewGridIndex(minX, minY, maxX, maxY, sim.DeriveCellSize(g, w.Fleet))
	if err != nil {
		return err
	}
	locs := make([]roadnet.VertexID, w.Fleet)
	for i, p := range sim.Placements(cfg) {
		locs[i] = p.Loc
		x, y := g.Coord(p.Loc)
		grid.Insert(spatial.ObjectID(i), x, y)
	}
	radius := (w.WaitSeconds + reportInterval) * roadnet.Speed
	n := int32(g.N())
	qx, qy := make([]float64, probeGridQueries), make([]float64, probeGridQueries)
	for i := range qx {
		qx[i], qy[i] = g.Coord(roadnet.VertexID(rng.Int31n(n)))
	}
	var cand []spatial.ObjectID
	found := 0
	start := time.Now()
	for i := range qx {
		cand = grid.Within(cand[:0], qx[i], qy[i], radius)
		found += len(cand)
	}
	pr.withinNs = float64(time.Since(start).Nanoseconds()) / probeGridQueries
	pr.candidates = float64(found) / probeGridQueries

	// One report interval of cruising per vehicle per round, walked up
	// front so only Update is timed.
	type move struct {
		id   spatial.ObjectID
		x, y float64
	}
	moves := make([]move, 0, probeGridRounds*w.Fleet)
	for round := 0; round < probeGridRounds; round++ {
		for i := range locs {
			budget := reportInterval * roadnet.Speed
			for {
				ts, ws := g.Neighbors(locs[i])
				if len(ts) == 0 {
					break
				}
				j := rng.Intn(len(ts))
				if ws[j] > budget {
					break
				}
				budget -= ws[j]
				locs[i] = ts[j]
			}
			x, y := g.Coord(locs[i])
			moves = append(moves, move{spatial.ObjectID(i), x, y})
		}
	}
	start = time.Now()
	for _, mv := range moves {
		grid.Update(mv.id, mv.x, mv.y)
	}
	pr.updateNs = float64(time.Since(start).Nanoseconds()) / float64(len(moves))
	updates, crossings := grid.Stats()
	pr.crossingFrac = ratio(float64(crossings), float64(updates))
	return nil
}

// probeSearch times the raw shortest-path backend, uncached, on the two kinds
// of vertex pairs the matcher asks about in equal parts: pairs no farther
// apart than the candidate radius (vehicle to pickup, pickup to pickup) and
// the workload's own trips (anything to a drop-off, which may be across town).
func probeSearch(pr *probeResults, w workloadSpec, g *roadnet.Graph, seed int64, rng *rand.Rand) error {
	radius := (w.WaitSeconds + reportInterval) * roadnet.Speed
	n := int32(g.N())
	type pair struct{ u, v roadnet.VertexID }
	pairs := make([]pair, 0, probePairs)
	for len(pairs) < probePairs/2 {
		u := roadnet.VertexID(rng.Int31n(n))
		for tries := 0; tries < 200; tries++ {
			v := roadnet.VertexID(rng.Int31n(n))
			if v != u && g.EuclideanDist(u, v) <= radius {
				pairs = append(pairs, pair{u, v})
				break
			}
		}
	}
	gen, err := workload.New(g, workload.Options{
		Pattern: w.Pattern, Hotspots: w.Hotspots, Rate: w.Lambda, Trips: probePairs - len(pairs), Seed: seed,
	})
	if err != nil {
		return err
	}
	for _, req := range gen.All() {
		pairs = append(pairs, pair{req.Pickup, req.Dropoff})
	}
	if err := gen.Err(); err != nil {
		return err
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	raw := sp.NewBidirectional(g)
	start := time.Now()
	for _, p := range pairs {
		raw.Dist(p.u, p.v)
	}
	pr.searchUs = float64(time.Since(start).Nanoseconds()) / float64(len(pairs)) / 1e3
	start = time.Now()
	for _, p := range pairs[:probePaths] {
		raw.Path(p.u, p.v)
	}
	pr.pathUs = float64(time.Since(start).Nanoseconds()) / probePaths / 1e3
	return nil
}
