// Command experiments regenerates the paper's evaluation tables and figures
// (exp.AllIDs is the index of experiment IDs -exp accepts). Example:
//
//	experiments -scale 0.02 -exp table1,fig6a
//	experiments -scale 0.05 -exp all -out results.txt
//
// Absolute times depend on the host; the shapes (who wins, by what factor)
// are what the experiments reproduce.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		charts      = flag.Bool("charts", false, "render sweep experiments as ASCII charts too")
		scale       = flag.Float64("scale", 0.02, "world size relative to the paper's Shanghai setup (1.0 = 122k vertices, 432k trips)")
		expList     = flag.String("exp", "all", "comma-separated experiment IDs, or 'all' (available: "+strings.Join(exp.AllIDs(), ", ")+")")
		trips       = flag.Int("trips", 0, "override the scaled trip count")
		maxRequests = flag.Int("max-requests", 0, "truncate the request stream per run (bounds slow baselines)")
		seed        = flag.Int64("seed", 1, "world seed")
		outPath     = flag.String("out", "", "write tables to this file instead of stdout")
		verbose     = flag.Bool("v", false, "log each simulation run to stderr")
	)
	flag.Parse()

	if err := run(*scale, *expList, *trips, *maxRequests, *seed, *outPath, *verbose, *charts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scale float64, expList string, trips, maxRequests int, seed int64, outPath string, verbose, charts bool) error {
	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	var vlog io.Writer
	if verbose {
		vlog = os.Stderr
	}

	fmt.Fprintf(out, "# experiments -exp %s -scale %g -trips %d -max-requests %d -seed %d\n# git %s, %s %s/%s, GOMAXPROCS=%d\n",
		expList, scale, trips, maxRequests, seed, revision(), runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	start := time.Now()
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: scale, Trips: trips, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "world: scale=%.3f vertices=%d edges=%d trips=%d (built in %v)\n\n",
		scale, world.Graph.N(), world.Graph.M(), len(world.Requests), time.Since(start).Round(time.Millisecond))

	h := exp.NewHarness(world, maxRequests, vlog)
	registry := h.Experiments()

	ids := exp.AllIDs()
	if expList != "all" {
		ids = strings.Split(expList, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		fn, ok := registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (available: %s)", id, strings.Join(exp.AllIDs(), ", "))
		}
		t0 := time.Now()
		table, err := fn()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		table.Notes = append(table.Notes, fmt.Sprintf("generated in %v at scale %.3f", time.Since(t0).Round(time.Millisecond), scale))
		if err := table.Render(out); err != nil {
			return err
		}
		if charts && strings.HasPrefix(id, "fig") {
			if err := exp.ChartFromTable(table, table.Columns[0]).Render(out); err != nil {
				return err
			}
		}
	}
	return nil
}

// revision is the git commit go build stamped into the binary ("-dirty"
// for a tree with uncommitted changes); go run stamps none.
func revision() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			} else if s.Key == "vcs.modified" && s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}
