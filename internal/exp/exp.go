// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VI) as text tables. Each experiment is
// one parameter sweep over full simulation runs; Harness.Experiments maps
// paper figure IDs to the functions here, and cmd/experiments is the CLI
// driver.
//
// Absolute times depend on the host; the shapes the paper reports (who wins,
// by what factor, where curves cross) are what these experiments reproduce.
package exp

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// World is the shared experimental environment: a synthetic-Shanghai road
// network, a cached shortest-path oracle, and a day of trip requests.
type World struct {
	Graph    *roadnet.Graph
	Requests []sim.Request
	Scale    float64
	seed     int64
}

// WorldOptions configures BuildWorld.
type WorldOptions struct {
	// Scale sizes everything relative to the paper's setup: road network
	// vertices, fleet sizes, and trip counts all scale together.
	// Scale 1.0 = 122,319 vertices / 432,327 trips / fleets up to 20,000.
	Scale float64
	// Trips overrides the scaled trip count when positive.
	Trips int
	// HorizonSeconds sets the request time span (default 86400, a full
	// day: servers and trips both scale with Scale, so per-server demand
	// stays paper-like without compressing the clock).
	HorizonSeconds float64
	Seed           int64
}

// BuildWorld constructs the experimental environment.
func BuildWorld(opt WorldOptions) (*World, error) {
	if opt.Scale <= 0 {
		return nil, fmt.Errorf("exp: scale must be positive, got %v", opt.Scale)
	}
	g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: opt.Scale, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	trips := opt.Trips
	if trips <= 0 {
		trips = int(float64(trace.ShanghaiTrips) * opt.Scale)
		if trips < 200 {
			trips = 200
		}
	}
	horizon := opt.HorizonSeconds
	if horizon <= 0 {
		horizon = 86400
	}
	reqs, err := trace.Generate(g, trace.GenOptions{
		Trips:          trips,
		HorizonSeconds: horizon,
		Seed:           opt.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return &World{Graph: g, Requests: reqs, Scale: opt.Scale, seed: opt.Seed}, nil
}

// ScaleCount scales a paper-sized fleet or trip count to this world,
// keeping at least min.
func (w *World) ScaleCount(paperCount, min int) int {
	n := int(math.Round(float64(paperCount) * w.Scale))
	if n < min {
		n = min
	}
	return n
}

// Constraint is one waiting-time/service-constraint setting from Table I/II.
type Constraint struct {
	WaitMinutes int
	EpsPercent  int
}

func (c Constraint) String() string {
	return fmt.Sprintf("%d min / %d%%", c.WaitMinutes, c.EpsPercent)
}

// Paper parameter grids (Tables I and II).
var (
	Constraints = []Constraint{{5, 10}, {10, 20}, {15, 30}, {20, 40}, {25, 50}}
	// DefaultConstraint is the bolded default 10 min / 20%.
	DefaultConstraint = Constraint{10, 20}
	// FourAlgoServers is Table I's fleet sweep (default 10,000).
	FourAlgoServers = []int{1000, 2000, 5000, 10000, 20000}
	// TreeServers is Table II's fleet sweep (default 2,000).
	TreeServers = []int{500, 1000, 2000, 5000, 10000}
	// TreeCapacities is the Fig. 9c sweep; 0 denotes unlimited.
	TreeCapacities = []int{3, 4, 5, 6, 7, 8, 12, 16, 0}
)

// FourAlgos are the algorithms of the §VI-A comparison.
var FourAlgos = []sim.Algorithm{
	sim.AlgoTreeSlack, sim.AlgoBranchBound, sim.AlgoBruteForce, sim.AlgoMIP,
}

// TreeAlgos are the kinetic-tree variants of the §VI-B comparison.
var TreeAlgos = []sim.Algorithm{
	sim.AlgoTreeBasic, sim.AlgoTreeSlack, sim.AlgoTreeHotspot,
}

// RunParams identifies one simulation configuration.
type RunParams struct {
	Algo       sim.Algorithm
	Servers    int
	Capacity   int
	Constraint Constraint
}

// Harness executes simulation runs with memoization so that sweeps sharing
// a configuration (e.g. every figure's default point) run once.
type Harness struct {
	World *World
	// MaxRequests truncates the request stream per run when positive,
	// bounding the wall-clock cost of slow baselines (the paper instead
	// waited hours; the shapes survive truncation).
	MaxRequests int
	Verbose     io.Writer // progress log, may be nil
	memo        map[RunParams]*sim.Metrics
}

// NewHarness returns a harness over the world.
func NewHarness(w *World, maxRequests int, verbose io.Writer) *Harness {
	return &Harness{World: w, MaxRequests: maxRequests, Verbose: verbose, memo: make(map[RunParams]*sim.Metrics)}
}

// Run executes (or recalls) the simulation for the given parameters.
func (h *Harness) Run(p RunParams) (*sim.Metrics, error) {
	if m, ok := h.memo[p]; ok {
		return m, nil
	}
	reqs := h.World.Requests
	if h.MaxRequests > 0 && len(reqs) > h.MaxRequests {
		reqs = reqs[:h.MaxRequests]
	}
	spec := pipeline.Default()
	spec.Algo = p.Algo.String()
	spec.Servers = p.Servers
	spec.Capacity = p.Capacity
	spec.WaitMinutes = float64(p.Constraint.WaitMinutes)
	spec.EpsPercent = float64(p.Constraint.EpsPercent)
	spec.Seed = h.World.seed + 1000
	// Bound MIP effort per trial so loose-constraint sweeps finish; the
	// warm-started incumbent keeps answers valid (Exact=false).
	limits := pipeline.Limits{MIPMaxNodes: 5000, MIPTimeBudget: 20 * time.Millisecond}
	start := time.Now()
	m, err := Simulate(h.World.Graph, spec, limits, reqs)
	if err != nil {
		return nil, fmt.Errorf("exp: run %+v: %w", p, err)
	}
	if h.Verbose != nil {
		fmt.Fprintf(h.Verbose, "# run algo=%s servers=%d cap=%d constraint=%s: %s (wall %v)\n",
			p.Algo, p.Servers, p.Capacity, p.Constraint, m, time.Since(start).Round(time.Millisecond))
	}
	h.memo[p] = m
	return m, nil
}

// Simulate replays reqs through the pipeline spec describes over g — at
// the default single worker the shards run inline, the paper's sequential
// evaluation loop — and checks the service invariants.
func Simulate(g *roadnet.Graph, spec pipeline.Spec, limits pipeline.Limits, reqs []sim.Request) (*sim.Metrics, error) {
	p, err := pipeline.Build(g, spec, pipeline.Hooks{Limits: limits})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	src := ingest.SliceSource(reqs)
	m, _, err := p.Run(&src)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(line(t.Columns)))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// fmtDur renders a duration for table cells.
func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(100 * time.Nanosecond).String()
}
