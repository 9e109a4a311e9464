package exp

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fourAlgoDefaults returns the §VI-A default parameters scaled to the world:
// capacity 4, 10 min / 20%, 10,000 servers.
func (h *Harness) fourAlgoDefaults() RunParams {
	return RunParams{
		Servers:    h.World.ScaleCount(10000, 10),
		Capacity:   4,
		Constraint: DefaultConstraint,
		Replay:     true,
	}
}

// treeDefaults returns the §VI-B default parameters scaled to the world:
// capacity 6, 10 min / 20%, 2,000 servers.
func (h *Harness) treeDefaults() RunParams {
	return RunParams{
		Servers:    h.World.ScaleCount(2000, 5),
		Capacity:   6,
		Constraint: DefaultConstraint,
	}
}

// runAll runs (or recalls) every algorithm at base's point.
func (h *Harness) runAll(base RunParams, algos []string) ([]*sim.Metrics, error) {
	metrics := make([]*sim.Metrics, len(algos))
	for i, a := range algos {
		p := base
		p.Algo = a
		m, err := h.Run(p)
		if err != nil {
			return nil, err
		}
		metrics[i] = m
	}
	return metrics, nil
}

// artTable builds an ART-by-request-count table for a set of algorithms at
// fixed parameters.
func (h *Harness) artTable(id, title string, algos []string, base RunParams) (*Table, error) {
	metrics, err := h.runAll(base, algos)
	if err != nil {
		return nil, err
	}
	maxBucket := 0
	for _, m := range metrics {
		for _, b := range m.ARTBuckets() {
			maxBucket = max(maxBucket, b)
		}
	}
	t := &Table{ID: id, Title: title, Columns: append([]string{"requests"}, algos...)}
	for b := 0; b <= maxBucket; b++ {
		row := []string{fmt.Sprintf("%d", b)}
		any := false
		for _, m := range metrics {
			d, n := m.ART(b)
			any = any || n > 0
			row = append(row, fmtDur(d))
		}
		if any {
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("servers=%d capacity=%d constraint=%s; ART = mean per-trial scheduling time bucketed by the candidate vehicle's scheduled request count", base.Servers, base.Capacity, base.Constraint))
	return t, nil
}

// acrtSweep builds an ACRT table over a one-dimensional sweep.
func (h *Harness) acrtSweep(id, title, dim string, algos []string, points []RunParams, labels []string) (*Table, error) {
	t := &Table{ID: id, Title: title, Columns: append([]string{dim}, algos...)}
	for i, base := range points {
		metrics, err := h.runAll(base, algos)
		if err != nil {
			return nil, err
		}
		row := []string{labels[i]}
		for _, m := range metrics {
			cell := fmtDur(m.ACRT())
			if m.OverBudget > 0 {
				cell = "DNF" // exceeded the tree-size budget (3 GB analogue)
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// artAtSweep builds an ART@k table over a sweep (Figs. 8 and 9a/b report
// the response time for vehicles that already carry k requests).
func (h *Harness) artAtSweep(id, title, dim string, k int, algos []string, points []RunParams, labels []string) (*Table, error) {
	t := &Table{ID: id, Title: title, Columns: []string{dim}}
	for _, a := range algos {
		t.Columns = append(t.Columns, fmt.Sprintf("%s@%d", a, k))
	}
	for i, base := range points {
		metrics, err := h.runAll(base, algos)
		if err != nil {
			return nil, err
		}
		row := []string{labels[i]}
		for _, m := range metrics {
			if d, n := m.ART(k); n > 0 {
				row = append(row, fmtDur(d))
				continue
			}
			// No vehicle reached k scheduled requests at this scale; fall
			// back to the largest observed bucket below k and annotate the
			// cell. ARTBuckets lists observed buckets in ascending order.
			fallback := -1
			for _, b := range m.ARTBuckets() {
				if b < k {
					fallback = b
				}
			}
			if fallback < 0 {
				row = append(row, "n/a")
			} else {
				fd, _ := m.ART(fallback)
				row = append(row, fmt.Sprintf("%s@%d", fmtDur(fd), fallback))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("cells are mean scheduling time for trials on vehicles already carrying %d requests; a cell like '50µs@3' falls back to the largest observed request count at this scale", k))
	return t, nil
}

// constraintPoints expands the constraint sweep around a base configuration.
func constraintPoints(base RunParams) ([]RunParams, []string) {
	pts := make([]RunParams, len(Constraints))
	labels := make([]string, len(Constraints))
	for i, c := range Constraints {
		p := base
		p.Constraint = c
		pts[i] = p
		labels[i] = c.String()
	}
	return pts, labels
}

// serverPoints expands a fleet-size sweep around a base configuration.
func (h *Harness) serverPoints(base RunParams, paperCounts []int) ([]RunParams, []string) {
	pts := make([]RunParams, len(paperCounts))
	labels := make([]string, len(paperCounts))
	for i, n := range paperCounts {
		p := base
		p.Servers = h.World.ScaleCount(n, 3)
		pts[i] = p
		labels[i] = fmt.Sprintf("%d (paper %d)", p.Servers, n)
	}
	return pts, labels
}

// Fig6a: ART for different numbers of scheduled requests, four algorithms.
func (h *Harness) Fig6a() (*Table, error) {
	return h.artTable("fig6a", "ART vs. scheduled requests (four algorithms)", FourAlgos, h.fourAlgoDefaults())
}

// Fig6b: ACRT for varying constraints, four algorithms.
func (h *Harness) Fig6b() (*Table, error) {
	pts, labels := constraintPoints(h.fourAlgoDefaults())
	return h.acrtSweep("fig6b", "ACRT vs. constraints (four algorithms)", "constraints", FourAlgos, pts, labels)
}

// Fig6c: ACRT for varying fleet size, four algorithms.
func (h *Harness) Fig6c() (*Table, error) {
	pts, labels := h.serverPoints(h.fourAlgoDefaults(), FourAlgoServers)
	return h.acrtSweep("fig6c", "ACRT vs. number of servers (four algorithms)", "servers", FourAlgos, pts, labels)
}

// Fig7a: ART for different numbers of scheduled requests, tree variants
// (capacity 6, 2,000 servers).
func (h *Harness) Fig7a() (*Table, error) {
	return h.artTable("fig7a", "ART vs. scheduled requests (tree variants)", TreeAlgos, h.treeDefaults())
}

// Fig7b: ACRT vs constraints, tree variants.
func (h *Harness) Fig7b() (*Table, error) {
	pts, labels := constraintPoints(h.treeDefaults())
	return h.acrtSweep("fig7b", "ACRT vs. constraints (tree variants)", "constraints", TreeAlgos, pts, labels)
}

// Fig7c: ACRT vs fleet size, tree variants.
func (h *Harness) Fig7c() (*Table, error) {
	pts, labels := h.serverPoints(h.treeDefaults(), TreeServers)
	return h.acrtSweep("fig7c", "ACRT vs. number of servers (tree variants)", "servers", TreeAlgos, pts, labels)
}

// Fig8a: ART for four scheduled requests vs constraints, four algorithms.
func (h *Harness) Fig8a() (*Table, error) {
	pts, labels := constraintPoints(h.fourAlgoDefaults())
	return h.artAtSweep("fig8a", "ART@4 vs. constraints (four algorithms)", "constraints", 4, FourAlgos, pts, labels)
}

// Fig8b: ART for four scheduled requests vs fleet size, four algorithms.
func (h *Harness) Fig8b() (*Table, error) {
	pts, labels := h.serverPoints(h.fourAlgoDefaults(), FourAlgoServers)
	return h.artAtSweep("fig8b", "ART@4 vs. number of servers (four algorithms)", "servers", 4, FourAlgos, pts, labels)
}

// Fig9a: ART for six scheduled requests vs constraints, tree variants.
func (h *Harness) Fig9a() (*Table, error) {
	pts, labels := constraintPoints(h.treeDefaults())
	return h.artAtSweep("fig9a", "ART@6 vs. constraints (tree variants)", "constraints", 6, TreeAlgos, pts, labels)
}

// Fig9b: ART for six scheduled requests vs fleet size, tree variants.
func (h *Harness) Fig9b() (*Table, error) {
	pts, labels := h.serverPoints(h.treeDefaults(), TreeServers)
	return h.artAtSweep("fig9b", "ART@6 vs. number of servers (tree variants)", "servers", 6, TreeAlgos, pts, labels)
}

// Fig9c: ACRT for varying capacity including unlimited, tree variants.
// Only the hotspot variant is expected to complete the largest capacities
// within the tree-size budget ("Only hotspot clustering algorithm can
// complete for unlimited capacity").
func (h *Harness) Fig9c() (*Table, error) {
	base := h.treeDefaults()
	pts := make([]RunParams, len(TreeCapacities))
	labels := make([]string, len(TreeCapacities))
	for i, c := range TreeCapacities {
		p := base
		p.Capacity = c
		pts[i] = p
		if c == 0 {
			labels[i] = "unlim"
		} else {
			labels[i] = fmt.Sprintf("%d", c)
		}
	}
	return h.acrtSweep("fig9c", "ACRT vs. capacity (tree variants)", "capacity", TreeAlgos, pts, labels)
}

// Fig9cStress reproduces the capacity cliff of Fig. 9c under dense demand:
// a tiny fleet faces a one-hour surge of strongly clustered requests with
// loose constraints, so unlimited-capacity vehicles accumulate co-located
// stops and the exact tree variants blow past the node budget ("The ACRT
// breaks off for each algorithm when it can no longer finish", §VI-B) while
// hotspot clustering completes.
func (h *Harness) Fig9cStress() (*Table, error) {
	gen, err := workload.New(h.World.Graph, workload.Options{
		Pattern:        workload.Surge,
		Trips:          600,
		HorizonSeconds: 3600,
		Hotspots:       3,
		HotspotSigma:   250,
		HotspotFrac:    0.95,
		Seed:           99,
	})
	if err != nil {
		return nil, err
	}
	reqs := gen.All()
	if err := gen.Err(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9cstress",
		Title:   "Surge workload at unlimited capacity (Fig. 9c cliff)",
		Columns: []string{"algorithm", "ACRT", "over-budget trials", "max tree nodes", "matched"},
	}
	surge := RunParams{Servers: 3, Capacity: 0 /* unlimited */, Constraint: Constraint{25, 50}}
	for _, a := range TreeAlgos {
		spec := h.spec(surge, a)
		spec.Seed = 1000
		m, err := Simulate(h.World.Graph, spec, pipeline.Hooks{MaxTreeNodes: 30000}, reqs)
		if err != nil {
			return nil, fmt.Errorf("exp: fig9cstress %s: %w", a, err)
		}
		acrt := fmtDur(m.ACRT())
		if m.OverBudget > 0 {
			acrt += " (DNF)"
		}
		t.Rows = append(t.Rows, []string{
			a, acrt,
			fmt.Sprintf("%d", m.OverBudget),
			fmt.Sprintf("%d", m.TreeNodesMax),
			fmt.Sprintf("%d/%d", m.Matched, m.Requests),
		})
	}
	t.Notes = append(t.Notes,
		"3 servers, 600 requests in one hour, 95% from 3 tight hotspots, 25 min / 50% constraints, 30k-node tree budget (3 GB analogue)",
		"paper shape: only hotspot clustering completes capacity > 7 and unlimited")
	return t, nil
}

// Occupancy reproduces the §VI-B closing statistics: peak passengers per
// server at unlimited capacity with 2,000 (scaled) servers.
func (h *Harness) Occupancy() (*Table, error) {
	p := h.treeDefaults()
	p.Capacity = 0
	p.Algo = sim.AlgoTreeHotspot.String()
	m, err := h.Run(p)
	if err != nil {
		return nil, err
	}
	max, mean, top := m.OccupancyStats()
	t := &Table{
		ID:      "occupancy",
		Title:   "Peak occupancy at unlimited capacity (hotspot tree)",
		Columns: []string{"statistic", "measured", "paper"},
		Rows: [][]string{
			{"max passengers in one server", fmt.Sprintf("%d", max), "17"},
			{"mean peak per server", fmt.Sprintf("%.2f", mean), "1.7"},
			{"mean over top-20% filled", fmt.Sprintf("%.2f", top), "3.9"},
		},
		Notes: []string{fmt.Sprintf("servers=%d constraint=%s; paper values are for the full-scale Shanghai run", p.Servers, p.Constraint)},
	}
	return t, nil
}

// Table1 summarizes the four-algorithm comparison at the default parameters
// with the headline ratios the paper reports in §VI-A. Every scheduler is
// timed on the same replayed instances; the distance resolution they share
// is timed apart and shown as its own row.
func (h *Harness) Table1() (*Table, error) {
	base := h.fourAlgoDefaults()
	t := &Table{
		ID:      "table1",
		Title:   "Four-algorithm comparison at defaults (Table I parameters)",
		Columns: []string{"algorithm", "ACRT", "vs branchbound", "matched", "rejected"},
	}
	metrics, err := h.runAll(base, FourAlgos)
	if err != nil {
		return nil, err
	}
	bbACRT := metrics[slices.Index(FourAlgos, "branchbound")].ACRT()
	for i, m := range metrics {
		ratio := "-"
		if bbACRT > 0 && m.ACRT() > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(m.ACRT())/float64(bbACRT))
		}
		t.Rows = append(t.Rows, []string{
			FourAlgos[i], fmtDur(m.ACRT()), ratio,
			fmt.Sprintf("%d", m.Matched), fmt.Sprintf("%d", m.Rejected),
		})
	}
	point := base
	point.Algo = ""
	if n := metrics[0].Requests; n > 0 {
		t.Rows = append(t.Rows, []string{"(distance resolution)", fmtDur(h.resolve[point] / time.Duration(n)), "-", "-", "-"})
	}
	t.Notes = append(t.Notes,
		"paper shapes: tree ~2x faster than branch-and-bound; brute force ~ branch-and-bound; MIP ~20x slower",
		"ACRT here is scheduling time only: per request, the sum over its trial instances of one tree TrialInsert or one Schedule call on pre-resolved distances",
		fmt.Sprintf("defaults: servers=%d capacity=%d constraint=%s", base.Servers, base.Capacity, base.Constraint))
	return t, nil
}

// Table2 summarizes the tree-variant comparison at its defaults with the
// slack-time saving the paper reports in §VI-B.
func (h *Harness) Table2() (*Table, error) {
	base := h.treeDefaults()
	t := &Table{
		ID:      "table2",
		Title:   "Tree-variant comparison at defaults (Table II parameters)",
		Columns: []string{"algorithm", "ACRT", "saving vs basic", "max tree nodes"},
	}
	metrics, err := h.runAll(base, TreeAlgos)
	if err != nil {
		return nil, err
	}
	basic := metrics[0].ACRT() // TreeAlgos[0] is the basic tree
	for i, m := range metrics {
		saving := "-"
		if basic > 0 && i > 0 {
			saving = fmt.Sprintf("%.0f%%", 100*(1-float64(m.ACRT())/float64(basic)))
		}
		t.Rows = append(t.Rows, []string{TreeAlgos[i], fmtDur(m.ACRT()), saving, fmt.Sprintf("%d", m.TreeNodesMax)})
	}
	t.Notes = append(t.Notes,
		"paper shapes: slack-time saves ~18% at defaults, up to 32% at the tightest constraints",
		fmt.Sprintf("defaults: servers=%d capacity=%d constraint=%s", base.Servers, base.Capacity, base.Constraint))
	return t, nil
}

// Experiments maps experiment IDs to their functions.
func (h *Harness) Experiments() map[string]func() (*Table, error) {
	return map[string]func() (*Table, error){
		"table1":         h.Table1,
		"table2":         h.Table2,
		"fig6a":          h.Fig6a,
		"fig6b":          h.Fig6b,
		"fig6c":          h.Fig6c,
		"fig7a":          h.Fig7a,
		"fig7b":          h.Fig7b,
		"fig7c":          h.Fig7c,
		"fig8a":          h.Fig8a,
		"fig8b":          h.Fig8b,
		"fig9a":          h.Fig9a,
		"fig9b":          h.Fig9b,
		"fig9c":          h.Fig9c,
		"occupancy":      h.Occupancy,
		"servicerate":    h.ServiceRate,
		"oracleablation": h.OracleAblation,
		"fig9cstress":    h.Fig9cStress,
	}
}

// AllIDs lists experiment IDs in presentation order.
func AllIDs() []string {
	return []string{
		"table1", "table2",
		"fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b", "fig7c",
		"fig8a", "fig8b",
		"fig9a", "fig9b", "fig9c",
		"occupancy", "servicerate", "oracleablation", "fig9cstress",
	}
}

// ServiceRate compares the share of requests each algorithm can serve at
// the four-algorithm defaults. All four solve the same scheduling problem on
// the same replayed instances, so the exact ones must agree request for
// request; this corresponds to the "maximize requests served" objective the
// paper lists for deadline DARP (§VII) and doubles as an end-to-end
// consistency check.
func (h *Harness) ServiceRate() (*Table, error) {
	base := h.fourAlgoDefaults()
	t := &Table{
		ID:      "servicerate",
		Title:   "Requests served at the four-algorithm defaults",
		Columns: []string{"algorithm", "matched", "rejected", "rate", "feasible trials"},
	}
	metrics, err := h.runAll(base, FourAlgos)
	if err != nil {
		return nil, err
	}
	for i, m := range metrics {
		rate := 0.0
		if m.Requests > 0 {
			rate = float64(m.Matched) / float64(m.Requests)
		}
		t.Rows = append(t.Rows, []string{
			FourAlgos[i],
			fmt.Sprintf("%d", m.Matched),
			fmt.Sprintf("%d", m.Rejected),
			fmt.Sprintf("%.1f%%", 100*rate),
			fmt.Sprintf("%d/%d", m.TrialCalls-m.TrialFailures, m.TrialCalls),
		})
	}
	t.Notes = append(t.Notes, "a request is matched when any of its replayed trial instances is feasible; the exact schedulers must agree, and MIP, whose warm start is a complete depth-first search, is feasible wherever they are")
	return t, nil
}

// OracleAblation compares end-to-end matching cost across every oracle
// stack the pipeline can assemble (pipeline.OracleNames) at the tree
// defaults: the on-demand searches, the preprocessed indexes, and the
// paper's design of a search engine behind an LRU distance cache. It
// quantifies why §VI invests in hub labels and caching: the matcher issues
// millions of distance queries.
func (h *Harness) OracleAblation() (*Table, error) {
	base := h.treeDefaults()
	reqs := h.requests()
	t := &Table{
		ID:      "oracleablation",
		Title:   "ACRT by shortest-path backend (slack tree at tree defaults)",
		Columns: []string{"oracle", "ACRT", "run wall time"},
	}
	for _, oracle := range pipeline.OracleNames() {
		spec := h.spec(base, sim.AlgoTreeSlack.String())
		spec.Oracle = oracle
		spec.Seed = 1000
		start := time.Now()
		m, err := Simulate(h.World.Graph, spec, pipeline.Hooks{}, reqs)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("exp: oracle ablation %s: %w", oracle, err)
		}
		t.Rows = append(t.Rows, []string{oracle, fmtDur(m.ACRT()), wall.Round(time.Millisecond).String()})
	}
	t.Notes = append(t.Notes, "the paper's design point is a precomputed distance index behind the dual LRU caches (§VI); plain Dijkstra shows what the caching layer buys")
	return t, nil
}
