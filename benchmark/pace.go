package main

import (
	"time"
)

// schedule maps simulated arrival times onto the wall clock of an open-loop
// phase: the stream's arrival process (rate lambda per simulated second) is
// replayed at offered requests per wall second, so request i is due at
// start + (t_i - t0) * lambda / offered whatever the system does with the
// requests before it.
type schedule struct {
	t0    float64 // simulated time mapped to offset 0
	scale float64 // wall seconds per simulated second
}

func newSchedule(t0, lambda, offeredRPS float64) schedule {
	return schedule{t0: t0, scale: lambda / offeredRPS}
}

// due is the wall offset from the phase start at which a request with
// simulated arrival time simT must be submitted.
func (s schedule) due(simT float64) time.Duration {
	return time.Duration((simT - s.t0) * s.scale * float64(time.Second))
}

// lateness is how far behind its schedule the generator submitted a request:
// sleep overshoot, or a full queue pushing back. Never negative: the driver
// does not submit early.
func lateness(due, submitted time.Duration) time.Duration {
	if submitted < due {
		return 0
	}
	return submitted - due
}

// pendingDecision is a request handed to the engine whose decision has not
// been observed yet.
type pendingDecision struct {
	index int   // position in the stream
	id    int64 // request ID
}

// decision is one observed decision: which request, and the clock of the
// sink call that produced it.
type decision struct {
	index   int
	clock   time.Duration // start of the latency clock (offset from phase start)
	decided time.Duration // return of the sink call that decided it
}

// decisionTracker attributes every request's decision to the sink call after
// which the engine first reports it dispatched. In immediate mode that is
// the request's own Submit. In batch mode a request waits in its window
// until a later Enqueue crosses the boundary and flushes it: its latency
// clock then starts at the due time of that triggering request, so the
// window length (a product setting) is excluded and the queueing and flush
// time the trigger saw is included.
type decisionTracker struct {
	pending []pendingDecision
}

// handed notes that a request was passed to the engine.
func (d *decisionTracker) handed(index int, id int64) {
	d.pending = append(d.pending, pendingDecision{index, id})
}

// observe is called after a sink call (or the final Flush) returned at
// decided; clock is the due time of the request that call carried. Every
// pending request the engine now reports dispatched is emitted and dropped
// from the pending set; arrival order is kept.
func (d *decisionTracker) observe(clock, decided time.Duration, dispatched func(id int64) bool, emit func(decision)) {
	kept := d.pending[:0]
	for _, p := range d.pending {
		if dispatched(p.id) {
			emit(decision{index: p.index, clock: clock, decided: decided})
		} else {
			kept = append(kept, p)
		}
	}
	d.pending = kept
}

// backlogPeak is the most requests that were ever submitted but not yet past
// the queue (the one entering the sink included), given each request's
// submission and sink-entry time on one clock, both in arrival order.
func backlogPeak(submitted, entered []time.Duration) int {
	peak, arrived := 0, 0
	for i, t := range entered {
		for arrived < len(submitted) && submitted[arrived] <= t {
			arrived++
		}
		if waiting := arrived - i; waiting > peak {
			peak = waiting
		}
	}
	return peak
}

// growing reports whether a per-request delay series (queue wait plus
// generator lateness, in arrival order) grows over the run: the mean of the
// last quarter exceeds twice the first quarter's plus slack. An open-loop
// phase above capacity builds backlog linearly, which this catches; bursts
// at a sustainable load do not trip it.
func growing(delays []time.Duration, slack time.Duration) bool {
	q := len(delays) / 4
	if q == 0 {
		return false
	}
	head, tail := meanDuration(delays[:q]), meanDuration(delays[len(delays)-q:])
	return tail > 2*head+slack
}

func meanDuration(ds []time.Duration) time.Duration {
	return sumDurations(ds) / time.Duration(len(ds))
}
