package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// printSummary writes the text report's lines below the metrics line:
// occupancy, tuning and allocation (ms0/ms1 bracket construction plus the
// run), then one line per pipeline stage that was switched on.
func printSummary(w io.Writer, o options, p *pipeline.Pipeline, m *sim.Metrics, ds ingest.DriveStats, ms0, ms1 *runtime.MemStats) {
	max, mean, top := m.OccupancyStats()
	fmt.Fprintf(w, "occupancy: max=%d mean=%.2f top20%%=%.2f\n", max, mean, top)
	tunedBy := "configured"
	if m.AutoTuned {
		tunedBy = "auto-tuned"
	}
	allocBytes := ms1.TotalAlloc - ms0.TotalAlloc
	allocObjs := ms1.Mallocs - ms0.Mallocs
	bytesPerReq := float64(0)
	if m.Requests > 0 {
		bytesPerReq = float64(allocBytes) / float64(m.Requests)
	}
	fmt.Fprintf(w, "tuning (%s): %d shards, cell size %.0f m; alloc %.1f MB / %d objects (%.0f B/req); GC pause total %v\n",
		tunedBy, m.TunedShards, m.TunedCellSize,
		float64(allocBytes)/(1<<20), allocObjs, bytesPerReq,
		time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs).Round(time.Microsecond))
	s := o.spec
	if s.Batch > 0 {
		fmt.Fprintf(w, "batch repair: %d conflicts repaired incrementally, %d retrial insertions saved vs full re-fan-out\n",
			m.ConflictsRepaired, m.RetrialTrialsSaved)
	}
	if p.Gateway != nil {
		fmt.Fprintf(w, "ingress: %d producers, policy %s, queue depth %d; admitted %d, shed %d (overflow %d, deadline %d, adaptive %d); queue peak %d; wait mean %v p99 %v\n",
			s.Producers, s.ShedPolicy, s.QueueDepth,
			m.Admitted, m.Shed(), m.ShedOverflow, m.ShedDeadline, m.ShedAdaptive,
			m.IngressQueuePeak,
			m.IngressWaitMean().Round(time.Microsecond), m.IngressWaitP99().Round(time.Microsecond))
		if s.ShedPolicy == ingest.Adaptive.String() {
			fmt.Fprintf(w, "admission: SLO %v; shed level peak %d‰, %d controller transitions\n",
				s.SLO, m.AdmissionShedPeakPM, m.AdmissionTransitions)
		}
		b := p.SLO.Snapshot()
		fmt.Fprintf(w, "slo: objective %.2f%% within %v; good %d, bad %d; error budget consumed %.1f%%; burn %.2fx\n",
			b.Objective*100, s.SLO, b.Good, b.Bad, b.BudgetConsumed*100, b.BurnRate)
	}
	if p.Injector != nil {
		fmt.Fprintf(w, "faults: plan %s; %s\n", s.FaultPlan, p.Injector.Stats())
		if p.Gateway != nil {
			fmt.Fprintf(w, "drive: sourced %d, submitted %d, dropped %d, discarded %d\n",
				ds.Sourced, ds.Submitted, ds.Dropped, ds.Discarded)
		}
	}
	// The shared distance table's efficacy, summed across all shards;
	// silent when the selected backend has no cache.
	if m.DistCacheHits+m.DistCacheMisses+m.PathCacheMisses > 0 {
		fmt.Fprintf(w, "dist cache: %.1f%% hit (%d hits, %d misses); %d path searches\n",
			m.DistCacheHitRate()*100, m.DistCacheHits, m.DistCacheMisses, m.PathCacheMisses)
	}
	if o.artOut {
		fmt.Fprintln(w, "\nART by scheduled requests:")
		for _, b := range m.ARTBuckets() {
			d, n := m.ART(b)
			fmt.Fprintf(w, "  %2d requests: %10v  (%d trials)\n", b, d, n)
		}
	}
}
