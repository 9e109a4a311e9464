package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkCityScale is the capacity tier: 10k- and 100k-vehicle fleets on
// proportionally sized synthetic cities, fed a streamed request workload
// (internal/workload), matched by the dispatch engine with auto-tuned
// sharding and cell size. Each tier runs a GOMAXPROCS=1 row and a
// GOMAXPROCS=NumCPU row (identical on single-core hosts — read the
// gomaxprocs metric before comparing), measuring req/s, p99 match latency,
// allocated bytes per request, and GC pause time. With BENCH_JSON_DIR set,
// every row is folded into one aggregate BENCH_CityScale.json keyed
// fleet<tier>_p<procs>_<metric>, so benchcheck validates both tiers in one
// file.
//
// The waiting budget is 2 minutes rather than the paper's 10: at city
// scale the candidate disk must stay a neighborhood, not a third of the
// map, or every request would trial thousands of vehicles.
func BenchmarkCityScale(b *testing.B) {
	tiers := []struct {
		label string
		fleet int
		scale float64
		trips int
	}{
		{"10k", 10_000, 0.15, 120},
		{"100k", 100_000, 0.8, 80},
	}
	procRows := []int{1, runtime.NumCPU()}
	for _, tier := range tiers {
		g, err := roadnet.SyntheticCity(roadnet.CityOptions{Scale: tier.scale, Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		gen, err := workload.New(g, workload.Options{
			Pattern: workload.Poisson,
			Trips:   tier.trips,
			Rate:    2, // ~1 request/500ms of simulated time: a compact horizon
			Seed:    17,
		})
		if err != nil {
			b.Fatal(err)
		}
		reqs := gen.All()
		if err := gen.Err(); err != nil {
			b.Fatal(err)
		}
		seen := map[int]bool{}
		for _, procs := range procRows {
			if seen[procs] {
				continue // single-core host: the NumCPU row is the procs=1 row
			}
			seen[procs] = true
			b.Run(fmt.Sprintf("fleet=%s/procs=%d", tier.label, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				var m *sim.Metrics
				var allocBytes, allocObjs, gcPause uint64
				var ms0, ms1 runtime.MemStats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					spec := benchSpec(tier.fleet, procs)
					spec.WaitMinutes = 2
					spec.Seed = 23
					spec.AutoTune = true
					e := build(b, g, spec, pipeline.Hooks{}).Engine
					runtime.ReadMemStats(&ms0)
					b.StartTimer()
					for j := range reqs {
						e.Submit(reqs[j])
					}
					b.StopTimer()
					runtime.ReadMemStats(&ms1)
					allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
					allocObjs += ms1.Mallocs - ms0.Mallocs
					gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
					m = e.Metrics()
					if m.Matched == 0 {
						b.Fatal("nothing matched at city scale")
					}
					e.Close()
					b.StartTimer()
				}
				nReq := float64(len(reqs)) * float64(b.N)
				reqPerSec := nReq / b.Elapsed().Seconds()
				p99Match := float64(m.MatchLatency.Quantile(0.99))
				bytesPerReq := float64(allocBytes) / nReq
				b.ReportMetric(reqPerSec, "req/s")
				b.ReportMetric(p99Match, "p99-match-ns")
				b.ReportMetric(bytesPerReq, "B/req")
				b.ReportMetric(float64(gcPause)/float64(b.N), "gc-pause-ns")
				b.ReportMetric(float64(m.TunedShards), "shards")
				b.ReportMetric(m.TunedCellSize, "cell-m")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
				if dir := obs.BenchDir(); dir != "" {
					prefix := fmt.Sprintf("fleet%s_p%d_", tier.label, procs)
					mergeCityScaleBench(b, dir, prefix, map[string]float64{
						"req_per_sec":          reqPerSec,
						"p99_match_latency_ns": p99Match,
						"bytes_per_req":        bytesPerReq,
						"allocs_per_req":       float64(allocObjs) / nReq,
						"gc_pause_ns":          float64(gcPause) / float64(b.N),
						"gomaxprocs":           float64(procs),
						"tuned_shards":         float64(m.TunedShards),
						"tuned_cell_size_m":    m.TunedCellSize,
						"match_rate":           float64(m.Matched) / float64(m.Requests),
					})
				}
			})
		}
	}
}

// mergeCityScaleBench folds one tier/procs row into the aggregate
// BENCH_CityScale.json. Read-modify-write keeps the rows of every
// subbenchmark — and of separate invocations — in one benchcheck-valid
// file, so the 10k and 100k tiers always validate together.
func mergeCityScaleBench(b *testing.B, dir, prefix string, kv map[string]float64) {
	b.Helper()
	r := obs.NewBenchResult("CityScale")
	if data, err := os.ReadFile(filepath.Join(dir, "BENCH_CityScale.json")); err == nil {
		if prevRun, err := obs.ValidateBench(data); err == nil {
			r.Metrics = prevRun.Metrics
		}
	}
	for k, v := range kv {
		r.Metrics[prefix+k] = v
	}
	if err := obs.WriteBench(dir, r); err != nil {
		b.Fatal(err)
	}
}
