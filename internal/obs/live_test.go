package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLiveNilSafe(t *testing.T) {
	var l *Live
	for c := Counter(0); c < numCounters; c++ {
		l.Add(c, 1)
		l.Set(c, 5)
	}
	s := l.Snapshot(nil)
	if len(s) != len(liveMetrics)+3 {
		t.Fatalf("nil Live snapshot has %d keys, want one per liveMetrics row plus 3 SLO keys (%d)", len(s), len(liveMetrics)+3)
	}
	for k, v := range s {
		if v != 0 {
			t.Fatalf("nil Live snapshot %s = %d, want zero", k, v)
		}
	}
}

// TestLiveMetricsExposition pins the read side of every live counter: the
// JSON snapshot keys and the Prometheus family names, help text and types
// that /metrics has served since the exposition was added. Both formats
// come from the one liveMetrics table plus the SLOTracker's account, so a
// row added there lands in both and must be added here.
func TestLiveMetricsExposition(t *testing.T) {
	l := &Live{}
	for c, v := range map[Counter]int64{
		Requests: 9, Matched: 7, Rejected: 2, Admitted: 10, ShedOverflow: 1, ShedDeadline: 3,
		ShedAdaptive: 4, Completed: 6, Flushes: 5, Conflicts: 8,
	} {
		l.Add(c, v)
	}
	l.Set(Backlog, 11)
	l.Set(ShedLevel, 250)

	// 12 good and 13 bad outcomes over the run, of which the rolling
	// window still holds 20 with 3 bad: 15% bad against a 10% budget, a
	// burn of 1.5.
	budget := NewSLOTracker(0.9, time.Hour)
	for i := 0; i < 25; i++ {
		budget.Observe(i < 12)
	}
	budget.slots[budget.cur] = sloSlot{good: 17, bad: 3}

	js, err := json.Marshal(l.Snapshot(budget))
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `{"admitted":10,"backlog":11,"completed":6,"conflicts":8,"flushes":5,"matched":7,` +
		`"rejected":2,"requests":9,"shed_adaptive":4,"shed_deadline":3,"shed_level_pm":250,` +
		`"shed_overflow":1,"slo_bad":13,"slo_burn_pm":1500,"slo_good":12}`
	if string(js) != wantJSON {
		t.Fatalf("JSON snapshot drifted:\n got %s\nwant %s", js, wantJSON)
	}

	slo := NewSLOTracker(0.9, time.Hour)
	slo.Observe(true)
	slo.Observe(true)
	slo.Observe(true)
	slo.Observe(false)
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	l.WriteProm(pw, slo)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	var noSLO bytes.Buffer // no tracker (no gateway): the SLO families are absent
	pw = NewPromWriter(&noSLO)
	l.WriteProm(pw, nil)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	const wantProm = `# HELP ridesim_requests_total Requests submitted to the matching engine.
# TYPE ridesim_requests_total counter
ridesim_requests_total 9
# HELP ridesim_matched_total Requests assigned a vehicle.
# TYPE ridesim_matched_total counter
ridesim_matched_total 7
# HELP ridesim_rejected_total Requests no vehicle could serve.
# TYPE ridesim_rejected_total counter
ridesim_rejected_total 2
# HELP ridesim_admitted_total Requests released from the gateway to the engine.
# TYPE ridesim_admitted_total counter
ridesim_admitted_total 10
# HELP ridesim_shed_overflow_total Requests shed for queue overflow.
# TYPE ridesim_shed_overflow_total counter
ridesim_shed_overflow_total 1
# HELP ridesim_shed_deadline_total Requests shed for blown service windows.
# TYPE ridesim_shed_deadline_total counter
ridesim_shed_deadline_total 3
# HELP ridesim_shed_adaptive_total Requests shed by the adaptive admission controller.
# TYPE ridesim_shed_adaptive_total counter
ridesim_shed_adaptive_total 4
# HELP ridesim_completed_total Trips dropped off.
# TYPE ridesim_completed_total counter
ridesim_completed_total 6
# HELP ridesim_flushes_total Batch windows flushed.
# TYPE ridesim_flushes_total counter
ridesim_flushes_total 5
# HELP ridesim_conflicts_total Batch conflicts repaired.
# TYPE ridesim_conflicts_total counter
ridesim_conflicts_total 8
# HELP ridesim_backlog Requests currently resident in gateway queues.
# TYPE ridesim_backlog gauge
ridesim_backlog 11
# HELP ridesim_shed_level_permille Adaptive shed probability, per mille.
# TYPE ridesim_shed_level_permille gauge
ridesim_shed_level_permille 250
# HELP ridesim_slo_good_total Requests released within the wall-clock SLO.
# TYPE ridesim_slo_good_total counter
ridesim_slo_good_total 3
# HELP ridesim_slo_bad_total Requests released late or shed against the SLO budget.
# TYPE ridesim_slo_bad_total counter
ridesim_slo_bad_total 1
# HELP ridesim_slo_objective Configured good-fraction objective.
# TYPE ridesim_slo_objective gauge
ridesim_slo_objective 0.9
# HELP ridesim_slo_burn_rate Rolling-window error-budget burn rate (1 = on budget).
# TYPE ridesim_slo_burn_rate gauge
ridesim_slo_burn_rate 2.5000000000000004
# HELP ridesim_slo_budget_consumed Fraction of the lifetime error budget consumed.
# TYPE ridesim_slo_budget_consumed gauge
ridesim_slo_budget_consumed 2.5000000000000004
`
	if got := buf.String(); got != wantProm {
		t.Fatalf("Prometheus exposition drifted:\n got:\n%s\nwant:\n%s", got, wantProm)
	}
	if got := noSLO.String(); !strings.HasPrefix(wantProm, got) || strings.Contains(got, "slo") {
		t.Fatalf("exposition without a tracker is not the counters alone:\n%s", got)
	}
}

func TestLiveCountersConcurrent(t *testing.T) {
	l := &Live{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Add(Requests, 1)
				l.Add(Matched, 1)
			}
		}()
	}
	wg.Wait()
	s := l.Snapshot(nil)
	if s["requests"] != 8000 || s["matched"] != 8000 {
		t.Fatalf("snapshot = %+v, want 8000 requests/matched", s)
	}
}

// syncBuffer guards a bytes.Buffer: the reporter goroutine writes while
// the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestReporterEmitsIntervalLines(t *testing.T) {
	l := &Live{}
	l.Add(Requests, 7)
	var buf syncBuffer
	r := NewReporter(&buf, 10*time.Millisecond, func() any { return l.Snapshot(nil) })
	time.Sleep(35 * time.Millisecond)
	r.Stop()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 { // a few ticks plus the final Stop line
		t.Fatalf("got %d report lines, want >= 2", len(lines))
	}
	for _, line := range lines {
		var rl struct {
			ElapsedMs int64        `json:"elapsed_ms"`
			Stats     LiveSnapshot `json:"stats"`
		}
		if err := json.Unmarshal([]byte(line), &rl); err != nil {
			t.Fatalf("report line %q is not JSON: %v", line, err)
		}
		if rl.Stats["requests"] != 7 {
			t.Fatalf("report line carries requests=%d, want 7", rl.Stats["requests"])
		}
	}
	var nilR *Reporter
	nilR.Stop() // must not panic
}

// TestReporterStopFlushesOnceIdempotent: Stop writes exactly one final
// snapshot line — including when no interval ever elapsed — and repeated
// Stops add nothing.
func TestReporterStopFlushesOnceIdempotent(t *testing.T) {
	l := &Live{}
	l.Add(Requests, 3)
	var buf syncBuffer
	r := NewReporter(&buf, time.Hour, func() any { return l.Snapshot(nil) })
	r.Stop()
	r.Stop()
	r.Stop()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d report lines after 3 Stops, want exactly 1 final flush:\n%s",
			len(lines), buf.String())
	}
	var rl struct {
		Stats LiveSnapshot `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rl); err != nil || rl.Stats["requests"] != 3 {
		t.Fatalf("final line %q bad: %v", lines[0], err)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	l := &Live{}
	l.Add(Matched, 3)
	s, err := Serve("127.0.0.1:0", l, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	var snap LiveSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics body is not JSON: %v\n%s", err, body)
	}
	if snap["matched"] != 3 {
		t.Fatalf("/metrics matched = %d, want 3", snap["matched"])
	}

	resp, err = http.Get("http://" + s.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}
