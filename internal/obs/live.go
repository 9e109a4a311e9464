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
// /metrics endpoint poll mid-run. Each value is updated with an atomic add
// or store by whichever goroutine owns the event and read with an atomic
// load.
//
// A nil *Live is the disabled state: Add and Set are no-ops and every
// value reads as zero, so the pipeline threads the handle unconditionally.
type Live struct {
	v [numCounters]atomic.Int64
}

// Counter names one Live value, and its row in liveMetrics.
type Counter int

const (
	Requests     Counter = iota // requests submitted to an engine
	Matched                     // requests assigned a vehicle
	Rejected                    // requests no vehicle could serve
	Admitted                    // requests the gateway released to an engine
	ShedOverflow                // requests shed for queue overflow
	ShedDeadline                // requests shed for blown service windows
	ShedAdaptive                // requests shed by the adaptive admission controller
	Completed                   // trips dropped off
	Flushes                     // batch windows flushed
	Conflicts                   // batch conflicts repaired
	Backlog                     // gauge: requests currently resident in gateway queues
	ShedLevel                   // gauge: current adaptive shed probability, per mille
	numCounters
)

// Add adds n to c (nil-safe).
func (l *Live) Add(c Counter, n int64) {
	if l != nil {
		l.v[c].Add(n)
	}
}

// Set stores n as c's current value (nil-safe).
func (l *Live) Set(c Counter, n int64) {
	if l != nil {
		l.v[c].Store(n)
	}
}

// Load reads c; a nil Live reads zero.
func (l *Live) Load(c Counter) int64 {
	if l == nil {
		return 0
	}
	return l.v[c].Load()
}

// liveMetric is the one definition of a live value's read side: the key
// it carries in the JSON snapshot and its Prometheus family (name, help,
// and counter vs gauge). Live.Snapshot and Live.WriteProm both iterate
// liveMetrics, so a Counter given a row here shows up on /metrics in both
// formats.
type liveMetric struct {
	key   string // JSON snapshot key
	prom  string // Prometheus family name
	help  string
	gauge bool
}

var liveMetrics = [numCounters]liveMetric{
	Requests:     {"requests", "ridesim_requests_total", "Requests submitted to the matching engine.", false},
	Matched:      {"matched", "ridesim_matched_total", "Requests assigned a vehicle.", false},
	Rejected:     {"rejected", "ridesim_rejected_total", "Requests no vehicle could serve.", false},
	Admitted:     {"admitted", "ridesim_admitted_total", "Requests released from the gateway to the engine.", false},
	ShedOverflow: {"shed_overflow", "ridesim_shed_overflow_total", "Requests shed for queue overflow.", false},
	ShedDeadline: {"shed_deadline", "ridesim_shed_deadline_total", "Requests shed for blown service windows.", false},
	ShedAdaptive: {"shed_adaptive", "ridesim_shed_adaptive_total", "Requests shed by the adaptive admission controller.", false},
	Completed:    {"completed", "ridesim_completed_total", "Trips dropped off.", false},
	Flushes:      {"flushes", "ridesim_flushes_total", "Batch windows flushed.", false},
	Conflicts:    {"conflicts", "ridesim_conflicts_total", "Batch conflicts repaired.", false},
	Backlog:      {"backlog", "ridesim_backlog", "Requests currently resident in gateway queues.", true},
	ShedLevel:    {"shed_level_pm", "ridesim_shed_level_permille", "Adaptive shed probability, per mille.", true},
}

// LiveSnapshot is one consistent-enough read of the counters (each value
// individually atomic), keyed by the liveMetrics JSON keys plus the error
// budget's slo_good, slo_bad and slo_burn_pm.
type LiveSnapshot map[string]int64

// Snapshot reads every counter, and the error-budget account from slo,
// whose burn rate is computed here, per read (nil-safe on both: zeros).
func (l *Live) Snapshot(slo *SLOTracker) LiveSnapshot {
	s := make(LiveSnapshot, len(liveMetrics)+3)
	for c, m := range liveMetrics {
		s[m.key] = l.Load(Counter(c))
	}
	a := slo.Snapshot()
	s["slo_good"], s["slo_bad"], s["slo_burn_pm"] = a.Good, a.Bad, int64(a.BurnRate*1000)
	return s
}

// WriteProm renders the counters in the Prometheus text format, in
// liveMetrics order, then slo's error-budget account (nil-safe: a nil
// Live writes zeros, a nil tracker nothing). Everything it reads is atomic
// or locked, so it is safe mid-run, unlike the quiescent-only histograms.
func (l *Live) WriteProm(pw *PromWriter, slo *SLOTracker) {
	for c, m := range liveMetrics {
		if m.gauge {
			pw.Gauge(m.prom, m.help, float64(l.Load(Counter(c))))
		} else {
			pw.Counter(m.prom, m.help, l.Load(Counter(c)))
		}
	}
	slo.WriteProm(pw)
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
// live counters and the SLO account, and /debug/pprof/* serves the
// runtime profiles. It binds a private mux so enabling it never touches
// http.DefaultServeMux.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the observability endpoint on addr (e.g. "localhost:6060";
// ":0" picks a free port — read it back with Addr). /metrics serves
// l.Snapshot(slo) as JSON, or the Prometheus text exposition
// l.WriteProm(pw, slo) when the request asks for it (?format=prom, or an
// Accept header naming text/plain before application/json);
// /metrics/prom always serves the exposition. Both are read per request.
func Serve(addr string, l *Live, slo *SLOTracker) (*Server, error) {
	servProm := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", promContentType)
		pw := NewPromWriter(w)
		l.WriteProm(pw, slo)
		pw.Flush()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if wantsProm(req) {
			servProm(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(l.Snapshot(slo))
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, req *http.Request) {
		servProm(w)
	})
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
