package dispatch

import (
	"testing"

	"repro/internal/sim"
)

// TestCityScaleEquivalence is the tuning half of the equivalence story:
// assignments must be bit-identical to the reference matcher at 1/4/8
// workers, in immediate and batch mode, and with auto-tuned sharding and
// cell size. Run under -race this also shakes out any cross-goroutine
// sharing of a vehicle's kinetic tree.
func TestCityScaleEquivalence(t *testing.T) {
	g, factory, reqs := testWorld(t, 150)

	seq := newRefMatcher(t, baseConfig(g, factory, sim.AlgoTreeSlack))
	want := seq.assignments(reqs)
	seq.Drain()
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("reference baseline invariants: %v", err)
	}

	// Batch mode matches each window at its flush instant, so it has its
	// own baseline: the same greedy pass over the flush-stamped stream.
	const window = 20.0
	wantBatch := newRefMatcher(t, baseConfig(g, factory, sim.AlgoTreeSlack)).
		assignments(stampTimes(reqs, greedyFlushTimes(reqs, window)))

	for _, workers := range []int{1, 4, 8} {
		for _, mode := range []struct {
			name  string
			batch float64
			tune  bool
		}{
			{"immediate", 0, false},
			{"batch", window, false},
			{"autotune", 0, true},
		} {
			cfg := baseConfig(g, factory, sim.AlgoTreeSlack)
			cfg.Workers = workers
			cfg.Shards = workers
			cfg.BatchWindow = mode.batch
			if mode.tune {
				cfg.Shards = 0 // let the tuner derive it
				cfg.AutoTune = true
			}
			e, err := New(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			if mode.batch > 0 {
				for _, r := range reqs {
					e.Enqueue(r)
				}
				e.Flush()
				for i, r := range reqs {
					veh, ok := e.Assignment(r.ID)
					if !ok {
						t.Fatalf("%s workers=%d: request %d never resolved", mode.name, workers, i)
					}
					if veh != wantBatch[i] {
						t.Fatalf("%s workers=%d: request %d assigned to %d, baseline chose %d",
							mode.name, workers, i, veh, wantBatch[i])
					}
				}
			} else {
				for i, r := range reqs {
					matched, veh := e.Submit(r)
					if !matched {
						veh = -1
					}
					if veh != want[i] {
						t.Fatalf("%s workers=%d: request %d assigned to %d, baseline chose %d",
							mode.name, workers, i, veh, want[i])
					}
				}
			}
			if err := e.Drain(); err != nil {
				t.Fatalf("%s workers=%d: drain: %v", mode.name, workers, err)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%s workers=%d: invariants: %v", mode.name, workers, err)
			}
			e.Close()
		}
	}
}
