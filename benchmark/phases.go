package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

type phaseKind int

const (
	// phaseClosed: one producer submits as fast as the drainer takes the
	// requests (closed loop, one client). Throughput, CPU, memory and the
	// service-quality counts come from here.
	phaseClosed phaseKind = iota
	// phasePaced: open loop at the workload's fixed offered rate; latency
	// is timed from each request's due time.
	phasePaced
	// phaseTraced: closed loop with the program's tracing on, timing oracle
	// facades and benchmark-side spans. Per-layer numbers only.
	phaseTraced
)

func (k phaseKind) String() string {
	return [...]string{"closed", "paced", "traced"}[k]
}

// phaseResult is everything one phase observed. Timings are wall-clock;
// counters come from the engine's and gateway's public metrics.
type phaseResult struct {
	kind      phaseKind
	stackPath string
	warmup    int // warm-up requests submitted first
	measured  int // measured requests submitted after them

	// Set-up: stack build start to the first measured request entering
	// the sink, split by layer.
	setup, roadnetBuild, spBuild, dispatchBuild, warmupTime time.Duration

	// Measured segment: first measured sink entry to the last decision.
	wall       time.Duration
	cpu        time.Duration   // process user+sys over the segment
	blockWall  []time.Duration // the same two, split into blocks of blockSize requests
	blockCPU   []time.Duration
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
	heapLive   uint64 // HeapAlloc after a forced GC, stack still referenced
	heapSys    uint64
	drain      time.Duration // Engine.Drain after the stream ended
	simSpan    float64       // simulated seconds the measured segment covers

	// Engine counters at the warm-up boundary, at the end of the measured
	// segment, and after Drain; gateway counters after its drain.
	base, end, final *sim.Metrics
	gateway          *sim.Metrics

	// assign[i] is the vehicle request i was matched to (-1 rejected,
	// -2 never decided), warm-up included. comparable is the prefix whose
	// decisions do not depend on where the stream was cut: everything in
	// immediate mode, everything before the final Flush in batch mode.
	assign     []int32
	comparable int

	// Per measured request, in arrival order.
	sinkNs   []int64         // sink call duration
	retAt    []time.Duration // sink return, offset from the segment start
	latency  []time.Duration // paced: due -> decision
	dueAt    []time.Duration // paced: due time, offset from the paced start
	submitAt []time.Duration // paced: actual submission, same clock
	enterAt  []time.Duration // paced: sink entry, same clock
	genNs    int64           // paced: time inside Generator.Next, summed
	submitNs int64           // paced: time inside Producer.Submit+Skip, summed

	saturated bool // paced: lateness or backlog grew over the run
	pacedWall time.Duration

	invariantErr error
	oracleErr    error // closed: assembled oracle vs plain Dijkstra

	// Traced pass only.
	oracle      oracleTotals // over the measured segment
	attribution *obs.Attribution
	spans       []benchSpan
	flushSpanMs float64 // mean duration of the program's fleet-level flush spans
	program     []byte  // the program's own drained trace, JSONL
	dropped     int     // records the tracer's rings overwrote
}

// queueing is each paced request's delay from its due time to sink entry.
func (r *phaseResult) queueing() []time.Duration {
	out := make([]time.Duration, len(r.enterAt))
	for i := range out {
		out[i] = r.enterAt[i] - r.dueAt[i]
	}
	return out
}

// genLate is how far behind schedule each paced request was submitted.
func (r *phaseResult) genLate() []time.Duration {
	out := make([]time.Duration, len(r.submitAt))
	for i := range out {
		out[i] = lateness(r.dueAt[i], r.submitAt[i])
	}
	return out
}

// blockSize is how many measured requests make one block of a phase's wall
// and CPU time. Two passes over one seed do the same work block for block, so
// the faster reading of each block is the one the host disturbed less.
const blockSize = 100

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// submitNow admits one request and lifts the producer's watermark just past
// it, so its release does not wait for the next arrival.
func submitNow(p *ingest.Producer, req sim.Request) {
	p.Submit(req)
	p.Skip(math.Nextafter(req.Time, math.Inf(1)))
}

// runPhase builds a fresh stack and drives warmupRequests plus measured
// requests of the seed's stream through workload.Generator -> ingest.Gateway ->
// dispatch.Engine, the way the phase kind prescribes.
func runPhase(w workloadSpec, seed int64, kind phaseKind, warmupRequests, measured int) (*phaseResult, error) {
	r := &phaseResult{kind: kind, warmup: warmupRequests, measured: measured}
	buildStart := time.Now()

	var tracer *obs.Tracer
	var live *obs.Live
	var plog, dlog *spanLog
	if kind == phaseTraced {
		tracer = obs.NewTracer(1 << 14) // > spans per ring of the traced stream
		live = &obs.Live{}
		plog = newSpanLog(tracer, "bench-producer", 2*(warmupRequests+measured))
		dlog = newSpanLog(tracer, "bench-drainer", 2*(warmupRequests+measured))
	}
	st, err := buildStack(w, seed, stackOpts{tracer: tracer, live: live, timeOracles: kind == phaseTraced})
	if err != nil {
		return nil, err
	}
	defer st.engine.Close()
	eng := st.engine
	r.stackPath = st.path
	r.roadnetBuild, r.spBuild, r.dispatchBuild = st.roadnetBuild, st.spBuild, st.dispatchBuild

	total := warmupRequests + measured
	gen, err := workload.New(st.graph, workload.Options{
		Pattern: w.Pattern, Hotspots: w.Hotspots, Rate: w.Lambda, Trips: total, Seed: seed, Trace: tracer,
	})
	if err != nil {
		return nil, err
	}
	gw := ingest.New(ingest.Config{
		Queues: eng.Shards(), Policy: ingest.Block, WaitSeconds: w.WaitSeconds,
		Trace: tracer, Live: live,
	})
	producer := gw.Producers(1)[0]

	// Written by the producer before Submit and read by the drainer inside
	// the sink for the same request; the gateway queue's lock orders them.
	ids := make([]int64, total)
	simT := make([]float64, total)
	due := make([]time.Duration, total)      // paced: offset from pacedStart
	submitAt := make([]time.Duration, total) // paced: offset from pacedStart
	submitNs := make([]int64, total)         // traced: tracer clock at submit start
	var pacedStart time.Time
	warmDone := make(chan struct{}) // closed once the last warm-up request left the sink

	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		defer producer.Close()
		var sched schedule
		for i := 0; i < total; i++ {
			s0, t0 := plog.now(), time.Now()
			req, ok := gen.Next()
			if !ok {
				return // short stream; reported through gen.Err or the count check
			}
			if kind == phasePaced && i >= warmupRequests {
				r.genNs += time.Since(t0).Nanoseconds()
			}
			plog.add(spanNext, req.ID, req.Time, s0)
			ids[i], simT[i] = req.ID, req.Time
			if kind == phasePaced && i >= warmupRequests {
				if i == warmupRequests {
					<-warmDone
					sched = newSchedule(simT[i-1], w.Lambda, w.OfferedRPS)
					pacedStart = time.Now()
				}
				due[i] = sched.due(req.Time)
				if wait := due[i] - time.Since(pacedStart); wait > 0 {
					time.Sleep(wait)
				}
				submitAt[i] = time.Since(pacedStart)
			}
			s1, t1 := plog.now(), time.Now()
			submitNs[i] = s1
			submitNow(producer, req)
			if kind == phasePaced && i >= warmupRequests {
				// The queue is near empty under paced load, so this is the
				// cost of admission, not time blocked on a full queue.
				r.submitNs += time.Since(t1).Nanoseconds()
			}
			plog.add(spanSubmit, req.ID, req.Time, s1)
		}
	}()

	r.assign = make([]int32, total)
	for i := range r.assign {
		r.assign[i] = -2
	}
	r.sinkNs = make([]int64, 0, measured)
	r.retAt = make([]time.Duration, 0, measured)
	if kind == phasePaced {
		r.latency = make([]time.Duration, measured)
		r.enterAt = make([]time.Duration, 0, measured)
	}

	var segStart time.Time
	var cpu0, blockStart, blockCPU0 time.Duration
	var ms0, ms1 runtime.MemStats
	endBlock := func() { // closes the block that began at blockStart
		wall, cpu := time.Since(segStart), cpuTime()-cpu0
		r.blockWall = append(r.blockWall, wall-blockStart)
		r.blockCPU = append(r.blockCPU, cpu-blockCPU0)
		blockStart, blockCPU0 = wall, cpu
	}
	var tracker decisionTracker
	dispatched := func(id int64) bool { _, ok := eng.Assignment(id); return ok }
	decide := func(d decision) {
		veh, _ := eng.Assignment(ids[d.index])
		r.assign[d.index] = int32(veh)
		dlog.add(spanRequest, ids[d.index], simT[d.index], submitNs[d.index])
		if kind == phasePaced && d.index >= warmupRequests {
			r.latency[d.index-warmupRequests] = d.decided - d.clock
		}
	}
	sink := st.sink(w)
	seen := 0
	gw.Drain(func(req sim.Request) {
		i := seen
		seen++
		if i == warmupRequests {
			// Warm-up boundary: everything after this line is measured.
			r.base = eng.Metrics()
			r.oracle = st.timed.totals()
			runtime.ReadMemStats(&ms0)
			cpu0 = cpuTime()
			segStart = time.Now()
			r.setup = segStart.Sub(buildStart)
			r.warmupTime = r.setup - r.roadnetBuild - r.spBuild - r.dispatchBuild
		}
		var enter time.Duration
		if kind == phasePaced && i >= warmupRequests {
			enter = time.Since(pacedStart)
		}
		s0 := dlog.now()
		t0 := time.Now()
		sink(req)
		took := time.Since(t0)
		dlog.add(spanSink, req.ID, req.Time, s0)

		tracker.handed(i, req.ID)
		tracker.observe(due[i], enter+took, dispatched, decide)
		r.comparable = seen - len(tracker.pending)
		if i >= warmupRequests {
			r.sinkNs = append(r.sinkNs, took.Nanoseconds())
			r.retAt = append(r.retAt, time.Since(segStart))
			if kind == phasePaced {
				r.enterAt = append(r.enterAt, enter)
			}
			// The last block stays open until the final decision below.
			if done := i - warmupRequests + 1; done%blockSize == 0 && done < measured {
				endBlock()
			}
		}
		if i == warmupRequests-1 {
			// Every measured segment starts from the same collector state:
			// no cycle half done, pools empty, the next cycle a full heap
			// away, so no cycle falls into one run's segment and not into
			// another's.
			runtime.GC()
			close(warmDone)
		}
	})
	<-producerDone
	if err := gen.Err(); err != nil {
		return nil, err
	}
	if seen != total {
		return nil, fmt.Errorf("%s phase: stream ended after %d of %d requests", kind, seen, total)
	}

	if w.BatchWindow > 0 {
		// The last window has no later arrival to flush it. Its decisions
		// are clocked from the Flush call and are not comparable across
		// phases that cut the stream at different lengths.
		var start time.Duration
		if kind == phasePaced {
			start = time.Since(pacedStart)
		}
		s0 := dlog.now()
		t0 := time.Now()
		eng.Flush()
		tracker.observe(start, start+time.Since(t0), dispatched, decide)
		dlog.add(spanFlush, -1, 0, s0)
	} else {
		r.comparable = total
	}
	endBlock()
	r.wall, r.cpu = sumDurations(r.blockWall), sumDurations(r.blockCPU)
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if kind == phasePaced {
		r.pacedWall = time.Since(pacedStart)
		r.dueAt, r.submitAt = due[warmupRequests:], submitAt[warmupRequests:]
		// due -> sink entry already contains the generator's lateness.
		r.saturated = growing(r.queueing(), 50*time.Millisecond)
	}
	r.simSpan = simT[total-1] - simT[warmupRequests-1]
	r.end = eng.Metrics()
	r.oracle = st.timed.totals().minus(r.oracle)

	s0 := dlog.now()
	t0 := time.Now()
	drainErr := eng.Drain()
	r.drain = time.Since(t0)
	dlog.add(spanDrain, -1, 0, s0)
	r.final = eng.Metrics()
	r.gateway = gw.Metrics()

	// Invariants other than the violation count, which is reported as
	// failed operations instead of stopping the run.
	if drainErr != nil {
		r.invariantErr = drainErr
	} else if err := eng.CheckInvariants(); err != nil && r.final.Violations == 0 {
		r.invariantErr = err
	}

	if kind == phaseClosed {
		if st.oracle != nil {
			r.oracleErr = checkOracle(st.graph, st.oracle, seed)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heapLive, r.heapSys = ms.HeapAlloc, ms.HeapSys
	}
	if kind == phaseTraced {
		var buf bytes.Buffer
		_, dropped, err := tracer.Drain(&buf)
		if err != nil {
			return nil, fmt.Errorf("drain trace: %w", err)
		}
		r.dropped = dropped
		r.program = buf.Bytes()
		tr, err := obs.ReadTrace(bytes.NewReader(r.program))
		if err != nil {
			return nil, fmt.Errorf("read back trace: %w", err)
		}
		r.attribution, _ = obs.Analyze(tr)
		// Flush spans belong to no request, so Analyze only counts them.
		var flushNs, flushes float64
		for _, sp := range tr.Spans {
			if sp.Stage == obs.StageFlush.String() {
				flushNs += float64(sp.DurationNs())
				flushes++
			}
		}
		r.flushSpanMs = ratio(flushNs, flushes) / 1e6
		r.spans = append(plog.spans, dlog.spans...)
	}
	return r, nil
}
