// Package workload is the repo's one request generator and its file
// format. A Generator produces a time-sorted trip-request stream one
// request at a time; All drains it into the slice the replay paths take,
// and WriteCSV/ReadCSV (csv.go) store and load such a slice — or real
// trip data in the same format. The paper replays 432,327 proprietary
// Shanghai taxi trips from one day; the Surge pattern synthesises that
// day — two rush-hour peaks, demand clustered at hotspots such as
// airports and the CBD — and the other two patterns are open-loop load:
// arrivals follow a stochastic process independent of how fast the
// system drains them, and the driver (ingest.Drive) can fan the requests
// out to concurrent producer goroutines as they are drawn.
//
// Three arrival patterns cover the paper-shaped scenarios:
//
//   - Poisson: homogeneous arrivals at a constant mean rate, endpoints
//     drawn from the usual uniform/hotspot mixture — steady city traffic;
//   - Surge: the replayed day. A fixed number of arrival times drawn
//     i.i.d. from the double rush-hour day curve and sorted — the
//     order-statistics form of the non-homogeneous Poisson process —
//     with morning and evening peaks over a nighttime trough;
//   - Hotspot: homogeneous arrivals whose pickups concentrate on a few
//     tight clusters (airport curbs, stadium gates) while dropoffs spread
//     city-wide — the spatial mix that stresses kinetic-tree blow-up and
//     motivates hotspot clustering (paper §V).
//
// A Generator is deterministic for a fixed seed: the same options produce
// the same stream request for request, which is what makes multi-producer
// ingress runs reproducible and comparable against single-producer
// baselines.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// Pattern selects the arrival process and spatial mix.
type Pattern int

const (
	// Poisson is steady traffic: exponential inter-arrivals at the mean
	// rate, mixed uniform/hotspot endpoints.
	Poisson Pattern = iota
	// Surge is the replayed day: arrivals pre-drawn from the double
	// rush-hour day curve.
	Surge
	// Hotspot concentrates pickups on a few tight clusters with
	// city-wide dropoffs.
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case Surge:
		return "surge"
	case Hotspot:
		return "hotspot"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern maps the CLI spellings (poisson, surge, hotspot) to a
// Pattern.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range []Pattern{Poisson, Surge, Hotspot} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown arrival pattern %q", s)
}

// Options configures a Generator. Zero values select the defaults noted
// per field.
type Options struct {
	Pattern Pattern
	// Trips caps the stream length when positive; with Trips == 0 the
	// stream ends at the horizon with however many requests the arrival
	// process produced. Surge draws exactly Trips arrivals, or
	// round(Rate × HorizonSeconds) of them when Trips is 0.
	Trips int
	// HorizonSeconds bounds request times (default 86400, one day). It
	// must be finite and not negative.
	HorizonSeconds float64
	// Rate is the mean arrival rate in requests/second. 0 derives it
	// from Trips over the horizon (so a Trips-capped stream spans the
	// whole day on average); with both zero, New fails. It must be
	// finite.
	Rate float64
	// Hotspots is the number of high-demand clusters (default 8; the
	// Hotspot pattern defaults to 3 tighter ones).
	Hotspots int
	// HotspotSigma is a cluster's spatial spread in meters (default 800;
	// 300 for the Hotspot pattern).
	HotspotSigma float64
	// HotspotFrac is the fraction of endpoints drawn from clusters
	// (default 0.6; for the Hotspot pattern, the fraction of pickups,
	// default 0.9).
	HotspotFrac float64
	// MinTripMeters rejects trips shorter than this Euclidean length
	// (default 1000).
	MinTripMeters float64
	Seed          int64
	// Trace, when non-nil, stamps a KindGenerated lifecycle event for every
	// request drawn from the stream (ring label "workload"). Tracing never
	// alters the stream: the same seed and options produce the same
	// requests with tracing on or off.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.HorizonSeconds == 0 {
		o.HorizonSeconds = 86400
	}
	if o.Hotspots == 0 {
		if o.Pattern == Hotspot {
			o.Hotspots = 3
		} else {
			o.Hotspots = 8
		}
	}
	if o.HotspotSigma == 0 {
		if o.Pattern == Hotspot {
			o.HotspotSigma = 300
		} else {
			o.HotspotSigma = 800
		}
	}
	if o.HotspotFrac == 0 {
		if o.Pattern == Hotspot {
			o.HotspotFrac = 0.9
		} else {
			o.HotspotFrac = 0.6
		}
	}
	if o.MinTripMeters == 0 {
		o.MinTripMeters = 1000
	}
	return o
}

// dayCurve is the relative request intensity at time-of-day t over the
// horizon: morning and evening rush-hour peaks over a nighttime trough
// (mean ≈ 0.5 over the day). It is the demand curve of the Surge pattern.
func dayCurve(t, horizon float64) float64 {
	h := 24 * t / horizon // hour of day
	peak := func(center, width float64) float64 {
		d := (h - center) / width
		return math.Exp(-d * d / 2)
	}
	return 0.15 + peak(8.5, 1.5) + 0.9*peak(18, 2)
}

// Generator draws the stream. Not safe for concurrent use: one goroutine
// pulls (ingest.Drive does this) and fans out from there.
type Generator struct {
	opt     Options
	g       *roadnet.Graph
	rng     *rand.Rand
	locator *roadnet.VertexLocator

	spots                  []spot
	minX, minY, maxX, maxY float64

	rate  float64   // homogeneous arrival rate (Poisson, Hotspot)
	times []float64 // Surge's pre-drawn arrival times, sorted

	t     float64 // current stream time
	count int     // requests emitted
	done  bool
	err   error     // sampling failure that ended the stream early
	ring  *obs.Ring // KindGenerated events (nil = tracing off)
}

type spot struct{ x, y float64 }

// New builds a generator over g. Either Trips or Rate must be positive.
func New(g *roadnet.Graph, opt Options) (*Generator, error) {
	opt = opt.withDefaults()
	if g.N() < 2 {
		return nil, fmt.Errorf("workload: graph too small (%d vertices)", g.N())
	}
	if h := opt.HorizonSeconds; !(h > 0) || math.IsInf(h, 1) {
		return nil, fmt.Errorf("workload: horizon must be a positive, finite number of seconds (0 selects the default), got %v", h)
	}
	if math.IsNaN(opt.Rate) || math.IsInf(opt.Rate, 0) {
		return nil, fmt.Errorf("workload: rate must be finite, got %v", opt.Rate)
	}
	if opt.Trips <= 0 && opt.Rate <= 0 {
		return nil, fmt.Errorf("workload: need Trips or Rate")
	}
	gen := &Generator{
		opt:     opt,
		g:       g,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		locator: roadnet.NewVertexLocator(g, 8),
		ring:    opt.Trace.Ring("workload"),
	}
	gen.minX, gen.minY, gen.maxX, gen.maxY = g.Bounds()
	for i := 0; i < opt.Hotspots; i++ {
		gen.spots = append(gen.spots, spot{
			x: gen.minX + gen.rng.Float64()*(gen.maxX-gen.minX),
			y: gen.minY + gen.rng.Float64()*(gen.maxY-gen.minY),
		})
	}
	gen.rate = opt.Rate
	if gen.rate <= 0 {
		gen.rate = float64(opt.Trips) / opt.HorizonSeconds
	}
	if opt.Pattern == Surge {
		n := opt.Trips
		if n <= 0 {
			n = int(math.Round(gen.rate * opt.HorizonSeconds))
		}
		gen.times = gen.drawDay(n)
	}
	return gen, nil
}

// drawDay draws n arrival times i.i.d. from the day curve, by rejection
// against its peak over a 200-point sweep, and sorts them. Given its
// count, a non-homogeneous Poisson process's arrivals are exactly such
// order statistics.
func (gen *Generator) drawDay(n int) []float64 {
	h := gen.opt.HorizonSeconds
	peak := 0.0
	for i := 0; i < 200; i++ {
		peak = math.Max(peak, dayCurve(h*float64(i)/200, h))
	}
	times := make([]float64, 0, n)
	for len(times) < n {
		t := gen.rng.Float64() * h
		if gen.rng.Float64()*peak <= dayCurve(t, h) {
			times = append(times, t)
		}
	}
	sort.Float64s(times)
	return times
}

// Next draws the following request: a monotone arrival time from the
// pattern's process and endpoints from its spatial mix, snapped to graph
// vertices. ok is false once the stream has ended — Trips emitted, the
// horizon passed, or trip sampling failed (the one abnormal ending,
// reported by Err).
func (gen *Generator) Next() (req sim.Request, ok bool) {
	if gen.done || (gen.opt.Trips > 0 && gen.count >= gen.opt.Trips) {
		gen.done = true
		return sim.Request{}, false
	}
	if gen.opt.Pattern == Surge {
		if gen.count == len(gen.times) {
			gen.done = true
			return sim.Request{}, false
		}
		gen.t = gen.times[gen.count]
	} else {
		gen.t += gen.rng.ExpFloat64() / gen.rate
		if gen.t > gen.opt.HorizonSeconds {
			gen.done = true
			return sim.Request{}, false
		}
	}
	s, e, ok := gen.sampleTrip()
	if !ok {
		// Not a normal end: the spatial mix can't produce a valid trip on
		// this graph. End the stream but record it, so callers can tell a
		// truncated workload from one that ran out the horizon (Err).
		gen.done = true
		gen.err = fmt.Errorf(
			"workload: no valid trip after 200 samples at t=%.0fs (%d emitted); graph too small for MinTripMeters=%.0f?",
			gen.t, gen.count, gen.opt.MinTripMeters)
		return sim.Request{}, false
	}
	req = sim.Request{ID: int64(gen.count), Time: gen.t, Pickup: s, Dropoff: e}
	gen.count++
	gen.ring.Emit(obs.KindGenerated, req.ID, req.Time, 0)
	return req, true
}

// sampleTrip draws one (pickup, dropoff) pair per the pattern's spatial
// mix, rejecting degenerate and too-short trips.
func (gen *Generator) sampleTrip() (s, e roadnet.VertexID, ok bool) {
	for tries := 0; tries < 200; tries++ {
		var sx, sy, ex, ey float64
		if gen.opt.Pattern == Hotspot {
			// Clustered pickups (airport curbs), city-wide dropoffs.
			sx, sy = gen.samplePoint(gen.opt.HotspotFrac)
			ex, ey = gen.sampleUniform()
		} else {
			sx, sy = gen.samplePoint(gen.opt.HotspotFrac)
			ex, ey = gen.samplePoint(gen.opt.HotspotFrac)
		}
		s = gen.locator.Nearest(sx, sy)
		e = gen.locator.Nearest(ex, ey)
		if s != e && gen.g.EuclideanDist(s, e) >= gen.opt.MinTripMeters {
			return s, e, true
		}
	}
	return 0, 0, false
}

// samplePoint draws from the cluster mixture: with probability frac a
// Gaussian around a random hotspot, otherwise uniform over the bounds.
func (gen *Generator) samplePoint(frac float64) (float64, float64) {
	if gen.rng.Float64() < frac && len(gen.spots) > 0 {
		s := gen.spots[gen.rng.Intn(len(gen.spots))]
		return s.x + gen.rng.NormFloat64()*gen.opt.HotspotSigma,
			s.y + gen.rng.NormFloat64()*gen.opt.HotspotSigma
	}
	return gen.sampleUniform()
}

func (gen *Generator) sampleUniform() (float64, float64) {
	return gen.minX + gen.rng.Float64()*(gen.maxX-gen.minX),
		gen.minY + gen.rng.Float64()*(gen.maxY-gen.minY)
}

// Err reports why the stream ended early, if it did: non-nil only when
// trip sampling failed (the graph can't satisfy the spatial mix), nil for
// the normal Trips-cap and horizon endings. Check it after the stream is
// drained.
func (gen *Generator) Err() error { return gen.err }

// All drains the remaining stream into a slice — the bridge to the
// slice-replay engines and to baselines that need the same demand twice
// (regenerate with the same seed for an identical stream).
func (gen *Generator) All() []sim.Request {
	var out []sim.Request
	for {
		req, ok := gen.Next()
		if !ok {
			return out
		}
		out = append(out, req)
	}
}
