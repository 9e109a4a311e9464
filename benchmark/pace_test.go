package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	// 0.2 arrivals per simulated second replayed at 50 per wall second:
	// one simulated second is 4 ms of wall time.
	s := newSchedule(1000, 0.2, 50)
	for _, c := range []struct {
		simT float64
		want time.Duration
	}{
		{1000, 0},
		{1001, 4 * time.Millisecond},
		{1005, 20 * time.Millisecond},
		{1250, time.Second},
	} {
		if got := s.due(c.simT); absDuration(got-c.want) > time.Microsecond {
			t.Errorf("due(%g) = %v, want %v", c.simT, got, c.want)
		}
	}
	// Mean spacing of a stream arriving at lambda is 1/offered on the wall.
	mean := (s.due(1000+1200/0.2) - s.due(1000)) / 1200
	if want := time.Second / 50; absDuration(mean-want) > time.Microsecond {
		t.Errorf("mean spacing %v, want %v", mean, want)
	}
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestLatenessAccounting(t *testing.T) {
	ms := time.Millisecond
	if got := lateness(10*ms, 13*ms); got != 3*ms {
		t.Errorf("late submission: %v, want 3ms", got)
	}
	if got := lateness(10*ms, 10*ms); got != 0 {
		t.Errorf("on time: %v, want 0", got)
	}
	// The driver never submits early; a clock reading before the due time
	// must not count as negative lateness.
	if got := lateness(10*ms, 9*ms); got != 0 {
		t.Errorf("early reading: %v, want 0", got)
	}
}

func TestBacklogPeak(t *testing.T) {
	ms := time.Millisecond
	// Requests 0..4 submitted at 0,1,2,3,10 ms. The engine is busy with
	// request 0 until 5 ms, so 1..3 pile up behind it.
	submitted := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 10 * ms}
	entered := []time.Duration{0, 5 * ms, 6 * ms, 7 * ms, 10 * ms}
	if got := backlogPeak(submitted, entered); got != 3 {
		t.Errorf("backlog peak = %d, want 3 (requests 1,2,3 waiting when 1 enters)", got)
	}
	// No queueing: each enters as it is submitted.
	if got := backlogPeak(submitted, submitted); got != 1 {
		t.Errorf("no queueing: peak = %d, want 1", got)
	}
	if got := backlogPeak(nil, nil); got != 0 {
		t.Errorf("empty: %d", got)
	}
}

func TestGrowingBacklog(t *testing.T) {
	ms := time.Millisecond
	steady := make([]time.Duration, 400)
	for i := range steady {
		steady[i] = time.Duration(5+i%7) * ms // bursts, no trend
	}
	if growing(steady, 50*ms) {
		t.Error("steady delays reported as growing")
	}
	ramp := make([]time.Duration, 400)
	for i := range ramp {
		ramp[i] = time.Duration(i) * ms // 1 ms more per request: over capacity
	}
	if !growing(ramp, 50*ms) {
		t.Error("linear backlog growth not detected")
	}
	if growing(ramp[:3], 50*ms) {
		t.Error("too few samples must not report growth")
	}
}

// In batch mode a request is decided by the Enqueue that crosses its window
// boundary, and its latency clock is that triggering request's due time.
func TestBatchDecisionAttribution(t *testing.T) {
	ms := time.Millisecond
	flushed := map[int64]bool{}
	dispatched := func(id int64) bool { return flushed[id] }
	var got []decision
	emit := func(d decision) { got = append(got, d) }
	var tr decisionTracker

	// Requests 0,1,2 fill window A; none is decided by its own Enqueue.
	for i := 0; i < 3; i++ {
		tr.handed(i, int64(100+i))
		tr.observe(time.Duration(i)*10*ms, time.Duration(i)*10*ms+ms, dispatched, emit)
	}
	if len(got) != 0 || len(tr.pending) != 3 {
		t.Fatalf("decisions before any flush: %v, pending %d", got, len(tr.pending))
	}
	// Request 3 (due 40 ms) crosses the boundary: its Enqueue flushes
	// window A and returns at 55 ms. Request 3 itself stays pending.
	flushed[100], flushed[101], flushed[102] = true, true, true
	tr.handed(3, 103)
	tr.observe(40*ms, 55*ms, dispatched, emit)
	want := []decision{
		{index: 0, clock: 40 * ms, decided: 55 * ms},
		{index: 1, clock: 40 * ms, decided: 55 * ms},
		{index: 2, clock: 40 * ms, decided: 55 * ms},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window A decisions = %+v, want %+v", got, want)
	}
	if len(tr.pending) != 1 || tr.pending[0].id != 103 {
		t.Fatalf("pending after flush = %+v, want request 103", tr.pending)
	}
	// The final Flush decides the rest, clocked from the Flush call.
	got = nil
	flushed[103] = true
	tr.observe(70*ms, 72*ms, dispatched, emit)
	if want := []decision{{index: 3, clock: 70 * ms, decided: 72 * ms}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("final flush decisions = %+v, want %+v", got, want)
	}
	if len(tr.pending) != 0 {
		t.Fatalf("pending after final flush: %+v", tr.pending)
	}
}

// In immediate mode every request is decided by its own sink call and
// clocked from its own due time.
func TestImmediateDecisionAttribution(t *testing.T) {
	ms := time.Millisecond
	var got []decision
	var tr decisionTracker
	for i := 0; i < 3; i++ {
		tr.handed(i, int64(i))
		due := time.Duration(i) * 10 * ms
		tr.observe(due, due+4*ms, func(int64) bool { return true }, func(d decision) { got = append(got, d) })
	}
	for i, d := range got {
		if d.index != i || d.decided-d.clock != 4*ms {
			t.Errorf("request %d: %+v, want its own 4 ms", i, d)
		}
	}
	if len(got) != 3 || len(tr.pending) != 0 {
		t.Fatalf("got %d decisions, %d pending", len(got), len(tr.pending))
	}
}
