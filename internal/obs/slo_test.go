package obs

import (
	"math"
	"testing"
	"time"
)

// near absorbs the float error in 1 - objective.
func near(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestSLOTrackerNilSafe(t *testing.T) {
	var tr *SLOTracker
	tr.Observe(true)
	tr.Observe(false)
	if s := tr.Snapshot(); s != (SLOSnapshot{}) {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
	if tr.Objective() != 0 {
		t.Fatal("nil tracker reported a burn rate or objective")
	}
}

func TestSLOTrackerObjectiveClamps(t *testing.T) {
	if got := NewSLOTracker(0.1, 0).Objective(); got != 0.5 {
		t.Fatalf("low objective clamped to %v, want 0.5", got)
	}
	if got := NewSLOTracker(1.5, 0).Objective(); got != 0.9999 {
		t.Fatalf("high objective clamped to %v, want 0.9999", got)
	}
	if got := NewSLOTracker(0.99, 0).Objective(); got != 0.99 {
		t.Fatalf("in-range objective rewritten to %v", got)
	}
}

func TestSLOTrackerAccounting(t *testing.T) {
	// A huge window so no slot rotates mid-test: lifetime and window
	// accounts must agree.
	tr := NewSLOTracker(0.9, time.Hour)
	for i := 0; i < 90; i++ {
		tr.Observe(true)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(false)
	}
	s := tr.Snapshot()
	if s.Good != 90 || s.Bad != 10 || s.WindowGood != 90 || s.WindowBad != 10 {
		t.Fatalf("counts = %+v, want 90 good / 10 bad in both accounts", s)
	}
	// 10 bad out of 100 against a 10% budget: exactly on budget.
	if !near(s.BudgetConsumed, 1.0) {
		t.Fatalf("budget consumed = %v, want 1.0", s.BudgetConsumed)
	}
	if !near(s.BurnRate, 1.0) {
		t.Fatalf("burn = %v, want 1.0", s.BurnRate)
	}
}

func TestSLOTrackerBurnExtremes(t *testing.T) {
	clean := NewSLOTracker(0.9, time.Hour)
	for i := 0; i < 50; i++ {
		clean.Observe(true)
	}
	if s := clean.Snapshot(); s.BurnRate != 0 || s.BudgetConsumed != 0 {
		t.Fatalf("clean window burns: %+v", s)
	}

	burning := NewSLOTracker(0.9, time.Hour)
	for i := 0; i < 50; i++ {
		burning.Observe(false)
	}
	// Every request bad against a 10% budget: burning 10x too fast.
	if s := burning.Snapshot(); !near(s.BurnRate, 10) {
		t.Fatalf("all-bad burn = %v, want 10", s.BurnRate)
	}

	if s := NewSLOTracker(0.9, time.Hour).Snapshot(); s.BurnRate != 0 || s.BudgetConsumed != 0 {
		t.Fatalf("empty tracker = %+v, want zero rates", s)
	}
}

func TestSLOTrackerWindowRotation(t *testing.T) {
	// A tiny window: outcomes observed now must fall out of the rolling
	// account after the window elapses, while lifetime counters persist.
	tr := NewSLOTracker(0.9, 20*time.Millisecond)
	for i := 0; i < 10; i++ {
		tr.Observe(false)
	}
	time.Sleep(50 * time.Millisecond)
	s := tr.Snapshot()
	if s.Bad != 10 {
		t.Fatalf("lifetime bad = %d, want 10", s.Bad)
	}
	if s.WindowBad != 0 || s.BurnRate != 0 {
		t.Fatalf("window did not roll: %+v", s)
	}
	if s.BudgetConsumed == 0 {
		t.Fatal("lifetime budget account rolled with the window")
	}
}
