// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VI) as text tables. Each experiment is
// one parameter sweep. The tree-variant figures (§VI-B) are full simulation
// runs; the four-algorithm figures (§VI-A) time every scheduler on the
// instances one slack-tree run captured (Replay). Harness.Experiments maps
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
	"text/tabwriter"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/sp"
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
	Seed  int64
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
	// A full day: servers and trips both scale with Scale, so per-server
	// demand stays paper-like without compressing the clock.
	reqs, err := trace.Generate(g, trace.GenOptions{
		Trips:          trips,
		HorizonSeconds: 86400,
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

// TreeAlgos are the kinetic-tree variants of the §VI-B comparison.
var TreeAlgos = []string{
	sim.AlgoTreeBasic.String(), sim.AlgoTreeSlack.String(), sim.AlgoTreeHotspot.String(),
}

// RunParams identifies one measured configuration.
type RunParams struct {
	Algo       string // a TreeAlgos entry, or a FourAlgos one when Replay is set
	Servers    int
	Capacity   int
	Constraint Constraint
	// Replay selects the §VI-A measurement: Algo's scheduler timed on the
	// instances a slack-tree run at this point captured, rather than a
	// simulation running Algo.
	Replay bool
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
	// resolve is each replayed point's distance-resolution time (keyed
	// with an empty Algo), and resolver the hub-label index it queries,
	// built on first use.
	resolve  map[RunParams]time.Duration
	resolver sp.Oracle
}

// NewHarness returns a harness over the world.
func NewHarness(w *World, maxRequests int, verbose io.Writer) *Harness {
	return &Harness{World: w, MaxRequests: maxRequests, Verbose: verbose,
		memo: make(map[RunParams]*sim.Metrics), resolve: make(map[RunParams]time.Duration)}
}

// requests is the request stream every run replays.
func (h *Harness) requests() []sim.Request {
	reqs := h.World.Requests
	if h.MaxRequests > 0 && len(reqs) > h.MaxRequests {
		reqs = reqs[:h.MaxRequests]
	}
	return reqs
}

// spec is the pipeline running algo at p's point.
func (h *Harness) spec(p RunParams, algo string) pipeline.Spec {
	spec := pipeline.Default()
	spec.Algo = algo
	spec.Servers = p.Servers
	spec.Capacity = p.Capacity
	spec.WaitMinutes = float64(p.Constraint.WaitMinutes)
	spec.EpsPercent = float64(p.Constraint.EpsPercent)
	spec.Seed = h.World.seed + 1000
	return spec
}

// Run executes (or recalls) the measurement for the given parameters.
func (h *Harness) Run(p RunParams) (*sim.Metrics, error) {
	if m, ok := h.memo[p]; ok {
		return m, nil
	}
	if p.Replay {
		return h.replay(p)
	}
	start := time.Now()
	m, err := Simulate(h.World.Graph, h.spec(p, p.Algo), pipeline.Hooks{}, h.requests())
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

// replay captures every trial instance of one slack-tree simulation at p's
// point, replays them through all FourAlgos schedulers, and memoizes each
// scheduler's metrics.
func (h *Harness) replay(p RunParams) (*sim.Metrics, error) {
	point := p
	point.Algo = ""
	reqs := h.requests()
	var insts []*core.Instance
	start := time.Now()
	if _, err := Simulate(h.World.Graph, h.spec(p, sim.AlgoTreeSlack.String()),
		pipeline.Hooks{Capture: func(in *core.Instance) { insts = append(insts, in) }}, reqs); err != nil {
		return nil, fmt.Errorf("exp: capture run %+v: %w", point, err)
	}
	if h.resolver == nil {
		h.resolver = sp.NewHubLabels(h.World.Graph)
	}
	ms, resolve := Replay(h.resolver, insts, len(reqs))
	h.resolve[point] = resolve
	for _, name := range FourAlgos {
		q := point
		q.Algo = name
		h.memo[q] = ms[name]
	}
	if h.Verbose != nil {
		fmt.Fprintf(h.Verbose, "# replay servers=%d cap=%d constraint=%s: %d instances, resolve %v (wall %v)\n",
			p.Servers, p.Capacity, p.Constraint, len(insts), resolve.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	}
	m, ok := h.memo[p]
	if !ok {
		return nil, fmt.Errorf("exp: %q is not a replayed scheduler (%s)", p.Algo, strings.Join(FourAlgos, ", "))
	}
	return m, nil
}

// Simulate replays reqs through the pipeline spec describes over g — at
// the default single worker the shards run inline, the paper's sequential
// evaluation loop — and checks the service invariants.
func Simulate(g *roadnet.Graph, spec pipeline.Spec, hooks pipeline.Hooks, reqs []sim.Request) (*sim.Metrics, error) {
	p, err := pipeline.Build(g, spec, hooks)
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

// Render writes the table in aligned plain text: a title line, the columns
// over a rule, the rows, then the notes.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns)) // each column's widest cell in dashes
	for _, row := range append([][]string{t.Columns}, t.Rows...) {
		for i, cell := range row[:min(len(row), len(rule))] {
			rule[i] = strings.Repeat("-", max(len(rule[i]), utf8.RuneCountInString(cell)))
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{t.Columns, rule}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
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
