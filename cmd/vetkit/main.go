// Command vetkit is the repo's static-analysis multichecker: three
// go/analysis-style passes that enforce, at compile time, the invariants
// the equivalence suites only catch after the fact. It speaks the
// `go vet -vettool` protocol; run it over the whole module with
//
//	go build -o /tmp/vetkit ./cmd/vetkit
//	go vet -vettool=/tmp/vetkit ./...
//
// The passes, and the invariant each enforces (see README "Invariants"
// for the full table and the //vetkit:allow <rule> <reason> escape hatch):
//
//	determinism     no wall clock, global PRNG, racing selects, or
//	                order-dependent map iteration in the packages whose
//	                outputs must be bit-identical across runs
//	oracletaxonomy  per-goroutine sp.Oracle values never cross goroutine
//	                boundaries (only SharedOracle / WorkerSource facades do)
//	lockdiscipline  no lock-containing values copied by value; sim.Metrics
//	                and obs.Histogram merge only via their merge functions
package main

import (
	"repro/internal/analysis/passes/determinism"
	"repro/internal/analysis/passes/lockdiscipline"
	"repro/internal/analysis/passes/oracletaxonomy"
	"repro/internal/analysis/unitchecker"
)

func main() {
	unitchecker.Main(
		determinism.Analyzer,
		lockdiscipline.Analyzer,
		oracletaxonomy.Analyzer,
	)
}
