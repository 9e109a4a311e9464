package ingest

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// req builds the minimal request the gateway itself inspects.
func req(id int64, t float64) sim.Request { return sim.Request{ID: id, Time: t} }

// drainAll drains the gateway after all producers closed and returns the
// released IDs in handoff order.
func drainAll(g *Gateway) []int64 {
	var out []int64
	g.Drain(func(r sim.Request) { out = append(out, r.ID) })
	return out
}

// TestFairEvictionProtectsPolite floods one producer against a polite one
// through a single depth-4 queue: every overflow eviction must land on the
// flooder's own backlog, never on the polite producer's lone request.
func TestFairEvictionProtectsPolite(t *testing.T) {
	gw := New(Config{Queues: 1, Depth: 4, Policy: ShedOldest})
	ps := gw.Producers(2)
	polite, flood := ps[0], ps[1]

	polite.Submit(req(0, 0))
	for i := int64(1); i <= 10; i++ {
		flood.Submit(req(i, float64(i)))
	}
	polite.Close()
	flood.Close()

	got := drainAll(gw)
	want := []int64{0, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("released %v, want %v", got, want)
		}
	}
	shed := gw.ShedByProducer()
	if shed[0] != 0 || shed[1] != 7 {
		t.Fatalf("ShedByProducer = %v, want [0 7]", shed)
	}
	m := gw.Metrics()
	if m.Admitted != 4 || m.ShedOverflow != 7 {
		t.Fatalf("admitted=%d overflow=%d, want 4/7", m.Admitted, m.ShedOverflow)
	}
}

// TestFairEvictionTieRotation pins the tie-break rules: an incoming
// producer tied at max occupancy self-evicts; otherwise the rotating
// cursor spreads eviction over the tied producers instead of always
// hitting the lowest index.
func TestFairEvictionTieRotation(t *testing.T) {
	gw := New(Config{Queues: 1, Depth: 4, Policy: ShedOldest})
	ps := gw.Producers(3)

	ps[0].Submit(req(0, 0))
	ps[0].Submit(req(1, 1))
	ps[1].Submit(req(2, 2))
	ps[1].Submit(req(3, 3))
	// Full: p0 and p1 hold two slots each. Three submissions from p2:
	// cursor picks p0 (ID 0), then p1 (ID 2); by the third, p2 itself is
	// tied at max and self-evicts (ID 4).
	ps[2].Submit(req(4, 4))
	ps[2].Submit(req(5, 5))
	ps[2].Submit(req(6, 6))
	for _, p := range ps {
		p.Close()
	}

	got := drainAll(gw)
	want := []int64{1, 3, 5, 6}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("released %v, want %v", got, want)
		}
	}
	shed := gw.ShedByProducer()
	if shed[0] != 1 || shed[1] != 1 || shed[2] != 1 {
		t.Fatalf("ShedByProducer = %v, want [1 1 1]", shed)
	}
}

// TestFairEvictionMidQueueRemoval evicts a victim from the middle of the
// ring and checks the older entries shift without reordering the rest.
func TestFairEvictionMidQueueRemoval(t *testing.T) {
	q := newQueue(4)
	push := func(id int64, tm float64, prod int32) (bool, stamped) {
		return q.push(stamped{req: req(id, tm), prod: prod}, true)
	}
	push(0, 0, 1)
	push(1, 1, 0)
	push(2, 2, 0)
	push(3, 3, 1)
	// Incoming p0 is tied at max with p1; self-eviction takes p0's oldest,
	// ID 1, sitting mid-queue behind p1's head entry.
	evicted, victim := push(4, 4, 0)
	if !evicted || victim.req.ID != 1 {
		t.Fatalf("evicted=%v victim=%d, want ID 1", evicted, victim.req.ID)
	}
	var h stampHeap
	q.drainInto(&h)
	want := []int64{0, 2, 3, 4}
	for _, w := range want {
		if got := h.pop().req.ID; got != w {
			t.Fatalf("FIFO order broken after mid-queue eviction: got %d want %d", got, w)
		}
	}
}

// TestQueueDepthClamp: a zero/negative depth clamps to one slot — the
// smallest queue that can still make progress under eviction.
func TestQueueDepthClamp(t *testing.T) {
	q := newQueue(0)
	if len(q.buf) != 1 {
		t.Fatalf("newQueue(0) depth = %d, want 1", len(q.buf))
	}
	if evicted, _ := q.push(stamped{req: req(1, 1)}, true); evicted {
		t.Fatal("first push into one-slot queue evicted")
	}
	evicted, victim := q.push(stamped{req: req(2, 2)}, true)
	if !evicted || victim.req.ID != 1 {
		t.Fatalf("one-slot queue: evicted=%v victim=%v, want eviction of ID 1", evicted, victim.req.ID)
	}
	if q.len() != 1 {
		t.Fatalf("queue len = %d, want 1", q.len())
	}
}

// TestDepthOneGateway runs a whole gateway on one-slot queues.
func TestDepthOneGateway(t *testing.T) {
	gw := New(Config{Queues: 1, Depth: 1, Policy: ShedOldest})
	p := gw.Producers(1)[0]
	for i := int64(0); i < 5; i++ {
		p.Submit(req(i, float64(i)))
	}
	p.Close()
	got := drainAll(gw)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("released %v, want [4]", got)
	}
	if m := gw.Metrics(); m.ShedOverflow != 4 {
		t.Fatalf("overflow = %d, want 4", m.ShedOverflow)
	}
}

// TestDeadlineShedBoundary pins the window boundary: a request whose lag
// exactly equals its window is still admitted and still released — only
// strictly blown windows shed.
func TestDeadlineShedBoundary(t *testing.T) {
	// Exactly at the boundary, admission and release both pass.
	gw := New(Config{Queues: 1, Policy: ShedDeadline, WaitSeconds: 100})
	ps := gw.Producers(2)
	if !ps[0].Submit(req(0, 100)) {
		t.Fatal("clock-setting request shed")
	}
	if !ps[1].Submit(req(1, 0)) { // lag == 100 == window: boundary admits
		t.Fatal("request at exact window boundary shed at admission")
	}
	ps[0].Close()
	ps[1].Close()
	if got := drainAll(gw); len(got) != 2 {
		t.Fatalf("released %v, want both requests", got)
	}
	if m := gw.Metrics(); m.ShedDeadline != 0 {
		t.Fatalf("deadline sheds = %d, want 0", m.ShedDeadline)
	}

	// One tick past the boundary, admission refuses.
	gw = New(Config{Queues: 1, Policy: ShedDeadline, WaitSeconds: 100})
	ps = gw.Producers(2)
	ps[0].Submit(req(0, 100.5))
	if ps[1].Submit(req(1, 0)) { // lag == 100.5 > window
		t.Fatal("blown-window request admitted")
	}
	ps[0].Close()
	ps[1].Close()
	if got := drainAll(gw); len(got) != 1 || got[0] != 0 {
		t.Fatalf("released %v, want [0]", got)
	}
	if m := gw.Metrics(); m.ShedDeadline != 1 {
		t.Fatalf("deadline sheds = %d, want 1", m.ShedDeadline)
	}
}

// TestShedContentionConservation hammers tiny queues from many producers
// concurrently with the drain and checks nothing is lost or duplicated:
// every submission is either released exactly once or counted shed.
// Run under -race this doubles as the eviction-path race test.
func TestShedContentionConservation(t *testing.T) {
	const producers, each = 8, 200
	gw := New(Config{Queues: 2, Depth: 2, Policy: ShedOldest})
	ps := gw.Producers(producers)
	var wg sync.WaitGroup
	for pi, p := range ps {
		wg.Add(1)
		go func(pi int, p *Producer) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				p.Submit(req(int64(pi*1000+j), float64(j)))
			}
			p.Close()
		}(pi, p)
	}
	seen := make(map[int64]bool)
	gw.Drain(func(r sim.Request) {
		if seen[r.ID] {
			t.Errorf("request %d released twice", r.ID)
		}
		seen[r.ID] = true
	})
	wg.Wait()

	m := gw.Metrics()
	if m.Admitted != len(seen) {
		t.Fatalf("metrics admitted=%d but %d unique releases", m.Admitted, len(seen))
	}
	if total := m.Admitted + m.ShedOverflow; total != producers*each {
		t.Fatalf("admitted=%d + overflow=%d = %d, want %d",
			m.Admitted, m.ShedOverflow, total, producers*each)
	}
	bySrc := 0
	for _, c := range gw.ShedByProducer() {
		bySrc += c
	}
	if bySrc != m.ShedOverflow {
		t.Fatalf("fairness ledger sums to %d, metrics overflow %d", bySrc, m.ShedOverflow)
	}
}

// TestAdmissionControllerHysteresis unit-tests the AIMD controller: hot
// evaluations climb additively to the cap, the dead band holds, calm
// evaluations halve to zero, and shedding-state transitions are counted.
func TestAdmissionControllerHysteresis(t *testing.T) {
	c := newController(100*time.Millisecond, 100)
	feed := func(d time.Duration, n int) {
		for i := 0; i < n; i++ {
			c.observe(d)
		}
	}

	feed(200*time.Millisecond, ctrlMinSamples)
	pm, changed := c.maybeAdjust(0)
	if !changed || pm != ctrlStep {
		t.Fatalf("first hot adjust: pm=%d changed=%v, want %d/true", pm, changed, ctrlStep)
	}
	for i := 0; i < 40; i++ {
		feed(200*time.Millisecond, ctrlMinSamples)
		pm, _ = c.maybeAdjust(200)
	}
	if pm != ctrlMaxPM {
		t.Fatalf("sustained heat: pm=%d, want clamp at %d", pm, ctrlMaxPM)
	}

	// Dead band: p99 between SLO/2 and SLO, backlog between the marks.
	feed(75*time.Millisecond, ctrlMinSamples)
	if pm, changed = c.maybeAdjust(50); changed || pm != ctrlMaxPM {
		t.Fatalf("dead band moved the level: pm=%d changed=%v", pm, changed)
	}

	// Calm: halve down to zero.
	steps := 0
	for pm != 0 {
		feed(10*time.Millisecond, ctrlMinSamples)
		pm, _ = c.maybeAdjust(0)
		if steps++; steps > 20 {
			t.Fatalf("calm decay never reached zero (pm=%d)", pm)
		}
	}
	if c.peakPM != ctrlMaxPM {
		t.Fatalf("peakPM = %d, want %d", c.peakPM, ctrlMaxPM)
	}
	if c.transitions != 2 {
		t.Fatalf("transitions = %d, want 2 (open->shedding->open)", c.transitions)
	}
}

// TestAdmissionControllerStarvedDrainer: with zero release observations,
// the sweep-count fallback still reacts to a growing backlog.
func TestAdmissionControllerStarvedDrainer(t *testing.T) {
	c := newController(100*time.Millisecond, 100)
	for i := 0; i < ctrlMaxSweeps-1; i++ {
		if _, changed := c.maybeAdjust(200); changed {
			t.Fatalf("adjusted before the sweep quota at sweep %d", i)
		}
	}
	pm, changed := c.maybeAdjust(200)
	if !changed || pm != ctrlStep {
		t.Fatalf("starved evaluation: pm=%d changed=%v, want %d/true", pm, changed, ctrlStep)
	}
}

// TestAdaptiveShedDeterministic: the per-producer error accumulator sheds
// exactly floor(level/1000) of the stream with no RNG — level 250 drops
// every 4th submission.
func TestAdaptiveShedDeterministic(t *testing.T) {
	gw := New(Config{Queues: 1, Depth: 64, Policy: Adaptive})
	gw.shedPM.Store(250)
	p := gw.Producers(1)[0]
	var refused []int64
	for i := int64(1); i <= 12; i++ {
		if !p.Submit(req(i, float64(i))) {
			refused = append(refused, i)
		}
	}
	p.Close()
	want := []int64{4, 8, 12}
	if len(refused) != len(want) {
		t.Fatalf("refused %v, want %v", refused, want)
	}
	for i := range want {
		if refused[i] != want[i] {
			t.Fatalf("refused %v, want %v", refused, want)
		}
	}
	if got := gw.live.Load(obs.ShedAdaptive); got != 3 {
		t.Fatalf("adaptive sheds = %d, want 3", got)
	}
	if got := drainAll(gw); len(got) != 9 {
		t.Fatalf("released %d requests, want 9", len(got))
	}
}

// TestAdaptiveOverloadEndToEnd drives an overloaded gateway (slow sink,
// tight wall SLO) and checks the adaptive policy's books balance: every
// submission is released or shed, releases are within-SLO by
// construction, and the controller demonstrably engaged.
func TestAdaptiveOverloadEndToEnd(t *testing.T) {
	const producers, each = 2, 200
	gw := New(Config{
		Queues:  1,
		Depth:   64,
		Policy:  Adaptive,
		WallSLO: 2 * time.Millisecond,
	})
	ps := gw.Producers(producers)
	var wg sync.WaitGroup
	for pi, p := range ps {
		wg.Add(1)
		go func(pi int, p *Producer) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				p.Submit(req(int64(pi*1000+j), float64(j)))
			}
			p.Close()
		}(pi, p)
	}
	released := 0
	gw.Drain(func(sim.Request) {
		released++
		time.Sleep(500 * time.Microsecond) // matcher far slower than arrivals
	})
	wg.Wait()

	m := gw.Metrics()
	if m.Admitted != released {
		t.Fatalf("metrics admitted=%d, sink saw %d", m.Admitted, released)
	}
	if total := m.Admitted + m.Shed(); total != producers*each {
		t.Fatalf("released=%d + shed=%d = %d, want %d",
			m.Admitted, m.Shed(), total, producers*each)
	}
	if m.ShedAdaptive == 0 {
		t.Fatal("overloaded adaptive gateway shed nothing via the SLO path")
	}
	if m.AdmissionShedPeakPM == 0 {
		t.Fatal("controller never raised the shed level under overload")
	}
	if m.AdmissionTransitions == 0 {
		t.Fatal("controller never transitioned into shedding")
	}
}

// TestDriveProducerPanic: an injected panic in one producer goroutine
// must surface as an error, release its watermark so the drain finishes
// on the survivors, and account for every routed request.
func TestDriveProducerPanic(t *testing.T) {
	const n, producers = 100, 4
	gw := New(Config{Queues: 2, Depth: 16})
	src := make(SliceSource, 0, n)
	for i := 0; i < n; i++ {
		src = append(src, req(int64(i), float64(i)))
	}
	inj := faults.New(faults.Plan{
		Name: "panic-test", Seed: 1,
		Producer: faults.ProducerPlan{PanicAt: 3},
	})

	var stats DriveStats
	var derr error
	done := make(chan struct{})
	go func() {
		stats, derr = DriveInjected(gw, &src, producers, inj)
		close(done)
	}()
	released := 0
	gw.Drain(func(sim.Request) { released++ })
	<-done

	if derr == nil || !strings.Contains(derr.Error(), "panicked") {
		t.Fatalf("Drive error = %v, want producer panic surfaced", derr)
	}
	// Producer 0 owns IDs 0,4,...,96 (25 requests): two submitted before
	// the panic, the panicking one dropped, the rest discarded.
	if stats.Sourced != n || stats.Submitted != 77 || stats.Dropped != 1 || stats.Discarded != 22 {
		t.Fatalf("stats = %+v, want sourced=100 submitted=77 dropped=1 discarded=22", stats)
	}
	if released != stats.Submitted {
		t.Fatalf("released %d, want every submitted request (%d)", released, stats.Submitted)
	}
	if s := inj.Stats(); s.Panics != 1 {
		t.Fatalf("injector stats = %v, want 1 panic", s)
	}
}

// TestDriveCrashPlanConservation: crash-span drops advance the watermark
// (via Skip) instead of stalling the drain, and the books balance.
func TestDriveCrashPlanConservation(t *testing.T) {
	const n, producers = 200, 4
	plan, err := faults.ParsePlan("producer-crash")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	gw := New(Config{Queues: 2, Depth: 32})
	src := make(SliceSource, 0, n)
	for i := 0; i < n; i++ {
		src = append(src, req(int64(i), float64(i/2)))
	}

	var stats DriveStats
	done := make(chan struct{})
	go func() {
		var derr error
		stats, derr = DriveInjected(gw, &src, producers, inj)
		if derr != nil {
			t.Errorf("DriveInjected: %v", derr)
		}
		close(done)
	}()
	released := 0
	gw.Drain(func(sim.Request) { released++ })
	<-done

	s := inj.Stats()
	if s.Crashes == 0 || s.Dropped == 0 {
		t.Fatalf("crash plan injected nothing: %v", s)
	}
	if stats.Dropped != s.Dropped {
		t.Fatalf("drive dropped %d, injector says %d", stats.Dropped, s.Dropped)
	}
	if stats.Submitted != n-stats.Dropped {
		t.Fatalf("submitted=%d, want sourced-dropped=%d", stats.Submitted, n-stats.Dropped)
	}
	if released != stats.Submitted {
		t.Fatalf("released %d, want %d (Block policy loses nothing admitted)", released, stats.Submitted)
	}
}
