package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/sp"
)

// tinyHarness builds a minimal world for smoke tests.
func tinyHarness(t testing.TB) *Harness {
	t.Helper()
	w, err := BuildWorld(WorldOptions{Scale: 0.004, Trips: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewHarness(w, 0, nil)
}

func TestBuildWorldValidation(t *testing.T) {
	if _, err := BuildWorld(WorldOptions{Scale: 0}); err == nil {
		t.Fatal("expected error for zero scale")
	}
	if _, err := BuildWorld(WorldOptions{Scale: -1}); err == nil {
		t.Fatal("expected error for negative scale")
	}
}

func TestScaleCount(t *testing.T) {
	w, err := BuildWorld(WorldOptions{Scale: 0.004, Trips: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.ScaleCount(10000, 10); got != 40 {
		t.Fatalf("ScaleCount(10000)=%d, want 40", got)
	}
	if got := w.ScaleCount(100, 10); got != 10 {
		t.Fatalf("min clamp: got %d", got)
	}
}

func TestHarnessMemoizes(t *testing.T) {
	h := tinyHarness(t)
	p := RunParams{Algo: sim.AlgoTreeSlack.String(), Servers: 10, Capacity: 4, Constraint: DefaultConstraint}
	a, err := h.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical params were re-run instead of memoized")
	}
}

// TestExperimentsSmoke runs every experiment on a tiny world and checks the
// tables render with the right structure. This is the integration test of
// the whole reproduction pipeline (network -> trace -> sim -> tables).
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	h := tinyHarness(t)
	for _, id := range AllIDs() {
		fn := h.Experiments()[id]
		if fn == nil {
			t.Fatalf("experiment %s not registered", id)
		}
		table, err := fn()
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		if table.ID != id {
			t.Errorf("experiment %s: table ID %s", id, table.ID)
		}
		if len(table.Rows) == 0 {
			t.Errorf("experiment %s: no rows", id)
		}
		var buf bytes.Buffer
		if err := table.Render(&buf); err != nil {
			t.Fatalf("experiment %s: render: %v", id, err)
		}
		out := buf.String()
		if !strings.Contains(out, table.Title) {
			t.Errorf("experiment %s: rendered output missing title", id)
		}
		for _, col := range table.Columns {
			if !strings.Contains(out, col) {
				t.Errorf("experiment %s: rendered output missing column %q", id, col)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a    bbbb", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestReplaySchedulersAgree: on the identical instances a slack-tree run
// captured, brute force, branch-and-bound and both exact tree variants —
// scheduling from scratch, and the timed path of one TrialInsert into a
// prebuilt tree — agree on feasibility and on the optimal cost; MIP is
// feasible wherever branch-and-bound is, never beats it, and matches it
// when it proves optimality.
func TestReplaySchedulersAgree(t *testing.T) {
	h := tinyHarness(t)
	p := h.fourAlgoDefaults()
	reqs := h.requests()
	var insts []*core.Instance
	capture := pipeline.Hooks{Capture: func(in *core.Instance) { insts = append(insts, in) }}
	if _, err := Simulate(h.World.Graph, h.spec(p, sim.AlgoTreeSlack.String()), capture, reqs); err != nil {
		t.Fatal(err)
	}
	oracle := sp.NewDijkstra(h.World.Graph)
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(b), 1) }
	feasible, shared := 0, 0
	for i, in := range insts {
		tab := resolveTable(oracle, in)
		bb := core.NewBranchBound(tab).Schedule(in)
		for _, s := range []core.Scheduler{
			core.NewBruteForce(tab),
			core.NewTreeScheduler(tab, core.TreeOptions{}),
			core.NewTreeScheduler(tab, core.TreeOptions{Slack: true}),
		} {
			res := s.Schedule(in)
			if res.OK != bb.OK || (bb.OK && !same(res.Cost, bb.Cost)) {
				t.Fatalf("instance %d: %s says (%v, %.9f), branchbound (%v, %.9f)", i, s.Name(), res.OK, res.Cost, bb.OK, bb.Cost)
			}
		}
		if _, ok := replayTree(tab, in); ok != bb.OK {
			t.Fatalf("instance %d: prebuilt-tree TrialInsert feasible=%v, branchbound %v", i, ok, bb.OK)
		}
		mip := core.NewMIPScheduler(tab, 5000)
		mip.SetTimeBudget(20 * time.Millisecond)
		res := mip.Schedule(in)
		switch {
		case bb.OK && !res.OK:
			t.Fatalf("instance %d: mip infeasible where branchbound costs %.3f", i, bb.Cost)
		case res.OK && res.Cost < bb.Cost && !same(res.Cost, bb.Cost):
			t.Fatalf("instance %d: mip %.9f beats the branchbound optimum %.9f", i, res.Cost, bb.Cost)
		case res.OK && res.Exact && !same(res.Cost, bb.Cost):
			t.Fatalf("instance %d: mip proved %.9f optimal, branchbound found %.9f", i, res.Cost, bb.Cost)
		}
		if bb.OK {
			feasible++
			if len(in.Trips) > 1 {
				shared++
			}
		}
	}
	if feasible == 0 || shared == 0 {
		t.Fatalf("%d instances, %d feasible, %d feasible with a trip already scheduled: the check is vacuous", len(insts), feasible, shared)
	}
	ms, _ := Replay(oracle, insts, len(reqs))
	for _, name := range FourAlgos {
		if got, want := ms[name].TrialCalls, len(insts); got != want {
			t.Errorf("%s: replay timed %d trials, want %d", name, got, want)
		}
		if got, want := ms[name].Matched, ms["branchbound"].Matched; got != want {
			t.Errorf("%s: replay matched %d requests, branchbound %d", name, got, want)
		}
	}
	t.Logf("%d instances, %d feasible, %d with a trip already scheduled", len(insts), feasible, shared)
}
