// Command gentrips generates a synthetic trip-request workload over a road
// network written by genmap, in the CSV format consumed by ridesim.
//
//	gentrips -graph city.bin -trips 20000 -out trips.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/roadnet"
	"repro/internal/workload"
)

func main() {
	var (
		graphPath = flag.String("graph", "city.bin", "road network file (RNG1 format)")
		trips     = flag.Int("trips", 10000, "number of requests")
		horizon   = flag.Float64("horizon", 86400, "request time span in seconds")
		hotspots  = flag.Int("hotspots", 8, "number of demand clusters")
		frac      = flag.Float64("hotspot-frac", 0.6, "fraction of endpoints drawn from clusters")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "trips.csv", "output path")
	)
	flag.Parse()

	if err := run(*graphPath, *trips, *horizon, *hotspots, *frac, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "gentrips:", err)
		os.Exit(1)
	}
}

func run(graphPath string, trips int, horizon float64, hotspots int, frac float64, seed int64, out string) error {
	f, err := os.Open(graphPath)
	if err != nil {
		return err
	}
	g, err := roadnet.ReadGraph(f)
	f.Close()
	if err != nil {
		return err
	}
	gen, err := workload.New(g, workload.Options{
		Pattern:        workload.Surge,
		Trips:          trips,
		HorizonSeconds: horizon,
		Hotspots:       hotspots,
		HotspotFrac:    frac,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	reqs := gen.All()
	if err := gen.Err(); err != nil {
		return err
	}
	of, err := os.Create(out)
	if err != nil {
		return err
	}
	err = workload.WriteCSV(of, reqs)
	if cerr := of.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d requests over %.1f hours on %d vertices\n", out, len(reqs), horizon/3600, g.N())
	return nil
}
