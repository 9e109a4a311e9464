package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// recordRandom feeds n pseudo-random samples into m through the same entry
// points the engines use. Float totals get integer-valued increments so
// summation order cannot perturb them.
func recordRandom(m *Metrics, r *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		m.Requests++
		if r.Intn(10) > 0 {
			m.Matched++
		} else {
			m.Rejected++
		}
		m.AddACRT(time.Duration(r.Intn(1_000_000)))
		m.AddART(r.Intn(6), time.Duration(r.Intn(100_000)))
		if r.Intn(3) == 0 {
			m.TrialFailures++
		}
		m.AddOccupancy(r.Intn(12))
		m.AddIngressWait(time.Duration(r.Intn(5_000_000)))
		m.FlushLatency.Record(int64(r.Intn(2_000_000)))
		m.Phase1Latency.Record(int64(r.Intn(1_000_000)))
		m.RepairLatency.Record(int64(r.Intn(500_000)))
		m.ReleaseLagMs.Record(int64(r.Intn(1000)))
		m.TotalWaitMeters += float64(r.Intn(1000))
		m.TotalRideMeters += float64(r.Intn(5000))
		m.TotalShortestLen += float64(r.Intn(4000))
		m.TotalVehicleMeters += float64(r.Intn(8000))
		m.Completed++
		if v := r.Intn(50); v > m.TreeNodesMax {
			m.TreeNodesMax = v
		}
	}
}

// TestMergeRoundTrip pins the merge law the sharded engines rely on:
// snapshotting the merge of independently recorded metrics is identical to
// snapshotting one metrics object that recorded every sample itself, and
// merge is commutative, associative, and has the empty metrics as
// identity — all observed through the full Snapshot (histogram summaries
// included).
func TestMergeRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sizes := []int{137, 71, 203}
		// whole records every part's samples in sequence.
		whole := NewMetrics()
		parts := make([]*Metrics, len(sizes))
		for i, n := range sizes {
			recordRandom(whole, rand.New(rand.NewSource(seed*10+int64(i))), n)
			parts[i] = NewMetrics()
			recordRandom(parts[i], rand.New(rand.NewSource(seed*10+int64(i))), n)
		}

		merged := NewMetrics()
		for _, p := range parts {
			merged.Merge(p)
		}
		if got, want := merged.Snapshot(nil), whole.Snapshot(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: snapshot of merged parts != snapshot of whole\n got: %+v\nwant: %+v",
				seed, got, want)
		}

		// Commutativity: reverse merge order, same snapshot.
		rev := NewMetrics()
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		if !reflect.DeepEqual(rev.Snapshot(nil), whole.Snapshot(nil)) {
			t.Fatalf("seed %d: merge is not commutative", seed)
		}

		// Associativity: (a+b)+c vs a+(b+c).
		ab := NewMetrics()
		ab.Merge(parts[0])
		ab.Merge(parts[1])
		ab.Merge(parts[2])
		bc := NewMetrics()
		bc.Merge(parts[1])
		bc.Merge(parts[2])
		aBC := NewMetrics()
		aBC.Merge(parts[0])
		aBC.Merge(bc)
		if !reflect.DeepEqual(ab.Snapshot(nil), aBC.Snapshot(nil)) {
			t.Fatalf("seed %d: merge is not associative", seed)
		}

		// Identity: merging an empty metrics changes nothing.
		merged.Merge(NewMetrics())
		if !reflect.DeepEqual(merged.Snapshot(nil), whole.Snapshot(nil)) {
			t.Fatalf("seed %d: empty merge is not the identity", seed)
		}
	}
}

// TestMetricsHistogramsBounded pins the satellite fix itself: recording a
// city-scale number of ingress waits and occupancies leaves the metrics at
// fixed size (histogram counters), and quantile queries stay cheap and
// sane.
func TestMetricsHistogramsBounded(t *testing.T) {
	m := NewMetrics()
	r := rand.New(rand.NewSource(42))
	const n = 1_000_000
	for i := 0; i < n; i++ {
		m.AddIngressWait(time.Duration(r.ExpFloat64() * 1e6))
	}
	if got := m.IngressWait.Count(); got != n {
		t.Fatalf("ingress wait count = %d, want %d", got, n)
	}
	mean, p99 := m.IngressWaitMean(), m.IngressWaitP99()
	if mean <= 0 || p99 < mean {
		t.Fatalf("implausible wait stats: mean=%v p99=%v", mean, p99)
	}
}
