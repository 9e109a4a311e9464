// Package trace generates and loads trip-request workloads. The paper's
// evaluation replays 432,327 real Shanghai taxi trips from May 29, 2009;
// that dataset is proprietary, so this package provides a synthetic
// generator reproducing the workload properties the matching algorithms are
// sensitive to — request rate over the day (two rush-hour peaks), spatial
// clustering of pickups/dropoffs (hotspots such as airports and the CBD,
// which drive kinetic-tree blow-up and hotspot-clustering benefit), and the
// trip length distribution — together with a CSV loader that accepts the
// real data where available.
package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ShanghaiTrips is the size of the paper's one-day trip dataset.
const ShanghaiTrips = 432327

// GenOptions configures Generate.
type GenOptions struct {
	// Trips is the number of requests to generate over the horizon.
	Trips int
	// HorizonSeconds is the span of request times (default 86400, one day).
	HorizonSeconds float64
	// Hotspots is the number of high-demand clusters (default 8).
	Hotspots int
	// HotspotSigma is the spatial spread of a cluster in meters
	// (default 800).
	HotspotSigma float64
	// HotspotFrac is the fraction of trip endpoints drawn from clusters
	// rather than uniformly (default 0.6).
	HotspotFrac float64
	// MinTripMeters rejects trips shorter than this Euclidean length
	// (default 1000), mimicking minimum taxi trips.
	MinTripMeters float64
	Seed          int64
}

func (o GenOptions) withDefaults() GenOptions {
	if o.HorizonSeconds == 0 {
		o.HorizonSeconds = 86400
	}
	if o.Hotspots == 0 {
		o.Hotspots = 8
	}
	if o.HotspotSigma == 0 {
		o.HotspotSigma = 800
	}
	if o.HotspotFrac == 0 {
		o.HotspotFrac = 0.6
	}
	if o.MinTripMeters == 0 {
		o.MinTripMeters = 1000
	}
	return o
}

// rateAt returns the relative request intensity at time-of-day t (seconds):
// the repo-wide demand curve, shared with the streaming generator so that
// replayed and streamed demand stay the same shape.
func rateAt(t, horizon float64) float64 {
	return workload.DayCurve(t, horizon)
}

// Generate produces a request stream on g, sorted by time. Endpoints are
// drawn from a mixture of uniform traffic and Gaussian hotspot clusters and
// snapped to the nearest vertex.
func Generate(g *roadnet.Graph, opt GenOptions) ([]sim.Request, error) {
	opt = opt.withDefaults()
	if opt.Trips <= 0 {
		return nil, fmt.Errorf("trace: Trips must be positive, got %d", opt.Trips)
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("trace: graph too small (%d vertices)", g.N())
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	locator := roadnet.NewVertexLocator(g, 8)
	minX, minY, maxX, maxY := g.Bounds()

	type hotspot struct{ x, y float64 }
	spots := make([]hotspot, opt.Hotspots)
	for i := range spots {
		spots[i] = hotspot{
			x: minX + rng.Float64()*(maxX-minX),
			y: minY + rng.Float64()*(maxY-minY),
		}
	}
	samplePoint := func() (float64, float64) {
		if rng.Float64() < opt.HotspotFrac && len(spots) > 0 {
			s := spots[rng.Intn(len(spots))]
			return s.x + rng.NormFloat64()*opt.HotspotSigma,
				s.y + rng.NormFloat64()*opt.HotspotSigma
		}
		return minX + rng.Float64()*(maxX-minX), minY + rng.Float64()*(maxY-minY)
	}

	// Sample request times by rejection against the day curve.
	maxRate := 0.0
	for i := 0; i < 200; i++ {
		t := opt.HorizonSeconds * float64(i) / 200
		maxRate = math.Max(maxRate, rateAt(t, opt.HorizonSeconds))
	}
	times := make([]float64, 0, opt.Trips)
	for len(times) < opt.Trips {
		t := rng.Float64() * opt.HorizonSeconds
		if rng.Float64()*maxRate <= rateAt(t, opt.HorizonSeconds) {
			times = append(times, t)
		}
	}
	sort.Float64s(times)

	reqs := make([]sim.Request, 0, opt.Trips)
	for i := 0; i < opt.Trips; i++ {
		var s, e roadnet.VertexID
		for tries := 0; ; tries++ {
			sx, sy := samplePoint()
			ex, ey := samplePoint()
			s = locator.Nearest(sx, sy)
			e = locator.Nearest(ex, ey)
			if s != e && g.EuclideanDist(s, e) >= opt.MinTripMeters {
				break
			}
			if tries > 100 {
				return nil, fmt.Errorf("trace: cannot sample trips >= %.0fm on this graph", opt.MinTripMeters)
			}
		}
		reqs = append(reqs, sim.Request{
			ID:      int64(i),
			Time:    times[i],
			Pickup:  s,
			Dropoff: e,
		})
	}
	return reqs, nil
}

// WriteCSV writes requests as "id,time,pickup,dropoff" rows with a header.
func WriteCSV(w io.Writer, reqs []sim.Request) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"id", "time", "pickup", "dropoff"}); err != nil {
		return err
	}
	for i := range reqs {
		r := &reqs[i]
		rec := []string{
			strconv.FormatInt(r.ID, 10),
			strconv.FormatFloat(r.Time, 'f', 3, 64),
			strconv.FormatInt(int64(r.Pickup), 10),
			strconv.FormatInt(int64(r.Dropoff), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV loads requests written by WriteCSV (or hand-prepared data in the
// same format) and returns them sorted by time.
func ReadCSV(r io.Reader, g *roadnet.Graph) ([]sim.Request, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if header[0] != "id" {
		return nil, fmt.Errorf("trace: unexpected header %v", header)
	}
	var reqs []sim.Request
	seen := make(map[int64]int)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad id %q", line, rec[0])
		}
		t, err := strconv.ParseFloat(rec[1], 64)
		if err != nil || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("trace: line %d: bad time %q", line, rec[1])
		}
		pu, err := strconv.ParseInt(rec[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad pickup %q", line, rec[2])
		}
		do, err := strconv.ParseInt(rec[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad dropoff %q", line, rec[3])
		}
		if pu < 0 || int(pu) >= g.N() || do < 0 || int(do) >= g.N() {
			return nil, fmt.Errorf("trace: line %d: vertex out of range", line)
		}
		// IDs are load-bearing for ordering: replay and the ingress gateway
		// both break timestamp ties by ID, and a duplicate would make the
		// multi-producer order nondeterministic (the gateway falls through
		// to its scheduling-dependent admission tick). Reject rather than
		// silently lose the bit-identical replay guarantee.
		if prev, ok := seen[id]; ok {
			return nil, fmt.Errorf("trace: line %d: duplicate id %d (first on line %d)", line, id, prev)
		}
		seen[id] = line
		reqs = append(reqs, sim.Request{ID: id, Time: t, Pickup: roadnet.VertexID(pu), Dropoff: roadnet.VertexID(do)})
	}
	// (Time, ID) rather than stable-by-Time: real traces have coarse
	// (second-granularity) timestamps, so ties are routine, and breaking
	// them by ID makes the replay order independent of CSV row order and
	// identical to the ingress gateway's stamped release order — which is
	// what keeps gateway runs bit-identical to direct replay.
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Time != reqs[j].Time {
			return reqs[i].Time < reqs[j].Time
		}
		return reqs[i].ID < reqs[j].ID
	})
	return reqs, nil
}
