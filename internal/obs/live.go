package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Live is the set of pipeline progress counters that may be read while the
// engines are running. Everything else in the metrics stack (histograms,
// sim.Metrics) is single-writer and only safe to read at quiescence; Live
// is the deliberately small atomic surface the interval reporter and the
// /metrics endpoint poll mid-run. All fields are updated with atomic adds
// by whichever goroutine owns the event and read with atomic loads.
//
// A nil *Live is the disabled state: every Add/Set is a no-op, so the
// pipeline threads the handle unconditionally.
type Live struct {
	Requests     atomic.Int64 // requests submitted to an engine
	Matched      atomic.Int64 // requests assigned a vehicle
	Rejected     atomic.Int64 // requests no vehicle could serve
	Admitted     atomic.Int64 // requests stamped into the gateway order
	ShedOverflow atomic.Int64 // requests shed for queue overflow
	ShedDeadline atomic.Int64 // requests shed for blown service windows
	ShedAdaptive atomic.Int64 // requests shed by the adaptive admission controller
	Completed    atomic.Int64 // trips dropped off
	Flushes      atomic.Int64 // batch windows flushed
	Conflicts    atomic.Int64 // batch conflicts repaired
	Backlog      atomic.Int64 // requests currently resident in gateway queues
	ShedLevel    atomic.Int64 // current adaptive shed probability, per mille
	SLOGood      atomic.Int64 // released within the wall-clock SLO
	SLOBad       atomic.Int64 // released late, or shed against the SLO budget
	BurnPM       atomic.Int64 // current SLO burn rate, per mille (1000 = on budget)
}

// AddRequests increments the submitted-requests counter (nil-safe).
func (l *Live) AddRequests(n int64) {
	if l != nil {
		l.Requests.Add(n)
	}
}

// AddMatched increments the matched counter (nil-safe).
func (l *Live) AddMatched(n int64) {
	if l != nil {
		l.Matched.Add(n)
	}
}

// AddRejected increments the rejected counter (nil-safe).
func (l *Live) AddRejected(n int64) {
	if l != nil {
		l.Rejected.Add(n)
	}
}

// AddAdmitted increments the admitted counter (nil-safe).
func (l *Live) AddAdmitted(n int64) {
	if l != nil {
		l.Admitted.Add(n)
	}
}

// AddShedOverflow increments the overflow-shed counter (nil-safe).
func (l *Live) AddShedOverflow(n int64) {
	if l != nil {
		l.ShedOverflow.Add(n)
	}
}

// AddShedDeadline increments the deadline-shed counter (nil-safe).
func (l *Live) AddShedDeadline(n int64) {
	if l != nil {
		l.ShedDeadline.Add(n)
	}
}

// AddShedAdaptive increments the adaptive-shed counter (nil-safe).
func (l *Live) AddShedAdaptive(n int64) {
	if l != nil {
		l.ShedAdaptive.Add(n)
	}
}

// SetShedLevel records the adaptive controller's current shed
// probability in per mille (nil-safe).
func (l *Live) SetShedLevel(pm int64) {
	if l != nil {
		l.ShedLevel.Store(pm)
	}
}

// AddCompleted increments the completed-trips counter (nil-safe).
func (l *Live) AddCompleted(n int64) {
	if l != nil {
		l.Completed.Add(n)
	}
}

// AddFlushes increments the flushed-windows counter (nil-safe).
func (l *Live) AddFlushes(n int64) {
	if l != nil {
		l.Flushes.Add(n)
	}
}

// AddConflicts increments the repaired-conflicts counter (nil-safe).
func (l *Live) AddConflicts(n int64) {
	if l != nil {
		l.Conflicts.Add(n)
	}
}

// SetBacklog records the current gateway queue residency (nil-safe).
func (l *Live) SetBacklog(n int64) {
	if l != nil {
		l.Backlog.Store(n)
	}
}

// AddSLOGood increments the within-SLO release counter (nil-safe).
func (l *Live) AddSLOGood(n int64) {
	if l != nil {
		l.SLOGood.Add(n)
	}
}

// AddSLOBad increments the SLO-budget-debit counter (nil-safe).
func (l *Live) AddSLOBad(n int64) {
	if l != nil {
		l.SLOBad.Add(n)
	}
}

// SetBurnPM records the current SLO burn rate in per mille (nil-safe).
func (l *Live) SetBurnPM(pm int64) {
	if l != nil {
		l.BurnPM.Store(pm)
	}
}

// liveMetric is the one definition of a live counter's read side: the key
// it carries in the JSON snapshot, its Prometheus family (name, help, and
// counter vs gauge), and how to load it. Live.Snapshot and Live.WriteProm
// both iterate liveMetrics, so a counter added to Live and given a row here
// shows up on /metrics in both formats.
type liveMetric struct {
	key   string // JSON snapshot key
	prom  string // Prometheus family name; "" keeps the row out of the exposition
	help  string
	gauge bool
	load  func(*Live) int64
}

// The three SLO rows are JSON-only: the Prometheus exposition takes the
// error-budget account from the SLOTracker itself (SLOTracker.WriteProm),
// which also carries the float-valued burn rate.
var liveMetrics = []liveMetric{
	{"requests", "ridesim_requests_total", "Requests submitted to the matching engine.", false, func(l *Live) int64 { return l.Requests.Load() }},
	{"matched", "ridesim_matched_total", "Requests assigned a vehicle.", false, func(l *Live) int64 { return l.Matched.Load() }},
	{"rejected", "ridesim_rejected_total", "Requests no vehicle could serve.", false, func(l *Live) int64 { return l.Rejected.Load() }},
	{"admitted", "ridesim_admitted_total", "Requests stamped into the gateway order.", false, func(l *Live) int64 { return l.Admitted.Load() }},
	{"shed_overflow", "ridesim_shed_overflow_total", "Requests shed for queue overflow.", false, func(l *Live) int64 { return l.ShedOverflow.Load() }},
	{"shed_deadline", "ridesim_shed_deadline_total", "Requests shed for blown service windows.", false, func(l *Live) int64 { return l.ShedDeadline.Load() }},
	{"shed_adaptive", "ridesim_shed_adaptive_total", "Requests shed by the adaptive admission controller.", false, func(l *Live) int64 { return l.ShedAdaptive.Load() }},
	{"completed", "ridesim_completed_total", "Trips dropped off.", false, func(l *Live) int64 { return l.Completed.Load() }},
	{"flushes", "ridesim_flushes_total", "Batch windows flushed.", false, func(l *Live) int64 { return l.Flushes.Load() }},
	{"conflicts", "ridesim_conflicts_total", "Batch conflicts repaired.", false, func(l *Live) int64 { return l.Conflicts.Load() }},
	{"backlog", "ridesim_backlog", "Requests currently resident in gateway queues.", true, func(l *Live) int64 { return l.Backlog.Load() }},
	{"shed_level_pm", "ridesim_shed_level_permille", "Adaptive shed probability, per mille.", true, func(l *Live) int64 { return l.ShedLevel.Load() }},
	{"slo_good", "", "", false, func(l *Live) int64 { return l.SLOGood.Load() }},
	{"slo_bad", "", "", false, func(l *Live) int64 { return l.SLOBad.Load() }},
	{"slo_burn_pm", "", "", true, func(l *Live) int64 { return l.BurnPM.Load() }},
}

// value loads the counter; a nil Live (the disabled state) reads as zero.
func (m liveMetric) value(l *Live) int64 {
	if l == nil {
		return 0
	}
	return m.load(l)
}

// LiveSnapshot is one consistent-enough read of the counters (each value
// individually atomic), keyed by the liveMetrics JSON keys.
type LiveSnapshot map[string]int64

// Snapshot reads every counter (nil-safe: all zeros).
func (l *Live) Snapshot() LiveSnapshot {
	s := make(LiveSnapshot, len(liveMetrics))
	for _, m := range liveMetrics {
		s[m.key] = m.value(l)
	}
	return s
}

// WriteProm renders the counters in the Prometheus text format, in
// liveMetrics order (nil-safe: all zeros). Everything here is atomics, so
// it is safe mid-run, unlike the quiescent-only histograms.
func (l *Live) WriteProm(pw *PromWriter) {
	for _, m := range liveMetrics {
		switch {
		case m.prom == "":
		case m.gauge:
			pw.Gauge(m.prom, m.help, float64(m.value(l)), nil)
		default:
			pw.Counter(m.prom, m.help, m.value(l), nil)
		}
	}
}

// Reporter periodically writes an interval snapshot as one JSON line. The
// snap callback supplies the payload (typically a LiveSnapshot, or any
// richer JSON-serializable view); each line is wrapped with a wall-clock
// offset so consumers can plot trajectories.
type Reporter struct {
	w        io.Writer
	interval time.Duration
	snap     func() any
	start    time.Time

	mu   sync.Mutex // serializes writes (ticker goroutine vs final Stop flush)
	done chan struct{}
	wg   sync.WaitGroup
	stop sync.Once
}

// reportLine is the envelope around each interval snapshot.
type reportLine struct {
	ElapsedMs int64 `json:"elapsed_ms"`
	Stats     any   `json:"stats"`
}

// NewReporter starts a goroutine that writes snap() to w every interval.
// Stop it with Stop, which writes one final line.
func NewReporter(w io.Writer, interval time.Duration, snap func() any) *Reporter {
	if interval <= 0 {
		interval = time.Second
	}
	r := &Reporter{
		w:        w,
		interval: interval,
		snap:     snap,
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	r.wg.Add(1)
	go r.loop()
	return r
}

func (r *Reporter) loop() {
	defer r.wg.Done()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.emit()
		case <-r.done:
			return
		}
	}
}

func (r *Reporter) emit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	line := reportLine{ElapsedMs: time.Since(r.start).Milliseconds(), Stats: r.snap()}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	r.w.Write(b)
}

// Stop halts the interval goroutine and flushes exactly one final
// snapshot line, so the last partial interval is never dropped. Nil-safe
// and idempotent: extra calls return after the first has finished.
func (r *Reporter) Stop() {
	if r == nil {
		return
	}
	r.stop.Do(func() {
		close(r.done)
		r.wg.Wait()
		r.emit()
	})
}

// Server is the live observability HTTP endpoint: /metrics serves the
// metrics callback as JSON, and /debug/pprof/* serves the runtime
// profiles. It binds a private mux so enabling it never touches
// http.DefaultServeMux.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the observability endpoint on addr (e.g. "localhost:6060";
// ":0" picks a free port — read it back with Addr). The metrics callback
// is invoked per /metrics request and must be safe for concurrent use —
// hand it atomics (Live.Snapshot), not quiescent-only state.
//
// When a prom callback is supplied, the Prometheus text exposition of the
// same metrics is served at /metrics/prom, and at /metrics itself when
// the request asks for it (?format=prom, or an Accept header naming
// text/plain before application/json). The callback writes the exposition
// through a PromWriter per scrape and must likewise be concurrency-safe.
func Serve(addr string, metrics func() any, prom ...func(*PromWriter)) (*Server, error) {
	var promFn func(*PromWriter)
	if len(prom) > 0 {
		promFn = prom[0]
	}
	servProm := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", promContentType)
		pw := NewPromWriter(w)
		promFn(pw)
		pw.Flush()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if promFn != nil && wantsProm(req) {
			servProm(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(metrics())
	})
	if promFn != nil {
		mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, req *http.Request) {
			servProm(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down. Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
