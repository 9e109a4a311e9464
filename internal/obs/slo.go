package obs

import (
	"sync"
	"time"
)

// SLOTracker is a rolling error-budget account for a latency SLO. The
// objective is "at least `objective` of requests are good" (good = the
// gateway released them within the wall-clock SLO); every outcome the
// pipeline observes debits or spares the error budget:
//
//   - good: released with residence <= the wall SLO;
//   - bad: released late, shed at handoff for blowing the wall SLO, or
//     refused by the adaptive admission controller (a shed rider is a
//     broken promise too).
//
// Lifetime counters answer "how much of the total budget is consumed";
// a short rolling window answers "how fast are we burning right now".
// The burn rate is the standard multi-window SLO signal: the window's
// bad fraction divided by the allowed fraction (1 - objective), so 1.0
// means exactly on budget, 10 means burning ten times too fast, and 0
// means a clean window. The tracker is the only place these outcomes are
// counted: Live.Snapshot, Live.WriteProm and sim's JSON snapshot read the
// account from it.
//
// Concurrency: Observe is mutex-guarded — it is called from the gateway
// drainer per release and from producer goroutines on admission sheds.
// All methods are nil-safe no-ops so the pipeline threads the handle
// unconditionally, like Live.
type SLOTracker struct {
	objective float64
	window    time.Duration
	slot      time.Duration

	mu      sync.Mutex
	good    int64 // lifetime
	bad     int64
	slots   []sloSlot // rolling ring of window/len(slots) buckets
	cur     int       // index of the active slot
	curEnd  time.Time // active slot's end
	started bool
}

type sloSlot struct{ good, bad int64 }

// DefaultSLOWindow is the rolling burn-rate window when NewSLOTracker is
// given a nonpositive one.
const DefaultSLOWindow = 30 * time.Second

// NewSLOTracker builds a tracker for the given objective (fraction of
// requests that must be good, clamped into [0.5, 0.9999]; e.g. 0.99 =
// a 1% error budget) over a rolling window (DefaultSLOWindow when <= 0)
// split into 10 slots.
func NewSLOTracker(objective float64, window time.Duration) *SLOTracker {
	if objective < 0.5 {
		objective = 0.5
	}
	if objective > 0.9999 {
		objective = 0.9999
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	const slots = 10
	return &SLOTracker{
		objective: objective,
		window:    window,
		slot:      window / slots,
		slots:     make([]sloSlot, slots),
	}
}

// Objective returns the configured good-fraction target (0 for nil).
func (t *SLOTracker) Objective() float64 {
	if t == nil {
		return 0
	}
	return t.objective
}

// rotate retires slots that fell out of the rolling window. Caller holds
// mu.
func (t *SLOTracker) rotate(now time.Time) {
	if !t.started {
		t.started = true
		t.curEnd = now.Add(t.slot)
		return
	}
	for !now.Before(t.curEnd) {
		t.cur = (t.cur + 1) % len(t.slots)
		t.slots[t.cur] = sloSlot{}
		t.curEnd = t.curEnd.Add(t.slot)
		// A long quiet gap: restart the window at now rather than
		// spinning through every elapsed slot.
		if now.Sub(t.curEnd) > t.window {
			for i := range t.slots {
				t.slots[i] = sloSlot{}
			}
			t.curEnd = now.Add(t.slot)
		}
	}
}

// Observe records one outcome. Nil-safe.
func (t *SLOTracker) Observe(good bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rotate(time.Now())
	if good {
		t.good++
		t.slots[t.cur].good++
	} else {
		t.bad++
		t.slots[t.cur].bad++
	}
	t.mu.Unlock()
}

// SLOSnapshot is one consistent read of the tracker.
type SLOSnapshot struct {
	Objective      float64 `json:"objective"`
	Good           int64   `json:"good"`
	Bad            int64   `json:"bad"`
	BudgetConsumed float64 `json:"budget_consumed"` // fraction of lifetime error budget spent
	WindowGood     int64   `json:"window_good"`
	WindowBad      int64   `json:"window_bad"`
	BurnRate       float64 `json:"burn_rate"` // window bad-fraction / (1 - objective)
}

// Snapshot reads the lifetime and rolling-window accounts. Nil-safe:
// zeros.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rotate(time.Now())
	s := SLOSnapshot{Objective: t.objective, Good: t.good, Bad: t.bad}
	for _, sl := range t.slots {
		s.WindowGood += sl.good
		s.WindowBad += sl.bad
	}
	allowed := 1 - t.objective
	if total := t.good + t.bad; total > 0 {
		s.BudgetConsumed = float64(t.bad) / (float64(total) * allowed)
	}
	if wt := s.WindowGood + s.WindowBad; wt > 0 {
		s.BurnRate = (float64(s.WindowBad) / float64(wt)) / allowed
	}
	return s
}

// WriteProm renders the error-budget account in the Prometheus text
// format. Nil-safe: a run without a tracker (no gateway) exposes nothing.
func (t *SLOTracker) WriteProm(pw *PromWriter) {
	if t == nil {
		return
	}
	s := t.Snapshot()
	pw.Counter("ridesim_slo_good_total", "Requests released within the wall-clock SLO.", s.Good)
	pw.Counter("ridesim_slo_bad_total", "Requests released late or shed against the SLO budget.", s.Bad)
	pw.Gauge("ridesim_slo_objective", "Configured good-fraction objective.", s.Objective)
	pw.Gauge("ridesim_slo_burn_rate", "Rolling-window error-budget burn rate (1 = on budget).", s.BurnRate)
	pw.Gauge("ridesim_slo_budget_consumed", "Fraction of the lifetime error budget consumed.", s.BudgetConsumed)
}
