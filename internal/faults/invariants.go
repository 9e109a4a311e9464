package faults

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Totals is the quiescent-state accounting the harness hands the
// invariant checker alongside the drained trace: what the driver
// sourced and deliberately lost, and what the gateway/engine metrics
// claim happened. The checker cross-validates these against the
// lifecycle events so a fault can neither lose a request silently nor
// double-count one.
type Totals struct {
	// Sourced is the number of requests the driver pulled from its
	// Source; Dropped is how many of those were deliberately lost
	// before admission (crash-span drops plus post-panic discards —
	// ingest.DriveStats.Dropped + .Discarded).
	Sourced int
	Dropped int
	// Released is the gateway's handoff count (sim.Metrics.Admitted:
	// the gateway counts a request admitted when it releases it).
	Released int
	// Shed counters as the metrics report them.
	ShedOverflow int
	ShedDeadline int
	ShedAdaptive int
	// Engine outcomes.
	Matched  int
	Rejected int
	// Drained is true when the harness ran the engine to quiescence
	// (every matched trip completed) before draining the trace, which
	// arms the matched ⇔ completed check.
	Drained bool
}

// Report is the checker's tally of the trace, for tests that want to
// assert a fault actually fired (e.g. overflow sheds > 0 under a storm).
type Report struct {
	Events    int
	Requests  int
	Admitted  int
	Released  int
	Matched   int
	Rejected  int
	Completed int
	// Shed counts by obs.ShedReason* value.
	Shed map[int64]int
}

// reqState accumulates one request's lifecycle events.
type reqState struct {
	admitted, queued, released   int
	matched, rejected, completed int
	shedAdmit, shedPost          int // pre-admission vs post-admission sheds
}

// Check reads a drained JSONL trace and verifies the pipeline's
// robustness invariants against it and the Totals:
//
//   - no duplicated request: at most one admission, one release, one
//     terminal engine outcome per request ID;
//   - causal legality: released ⇒ admitted, matched/rejected ⇒
//     released, completed ⇒ matched;
//   - conservation: every admitted request reaches exactly one of
//     {released, shed-post-admission}, in aggregate and per request —
//     nothing admitted is lost, nothing is handed off twice;
//   - source accounting: admissions + pre-admission sheds equal
//     Sourced − Dropped, so faults can only lose what they declared;
//   - watermark monotonicity: the drain ring's release sequence is
//     nondecreasing in (event time, request ID) — the stamped total
//     order survived every fault;
//   - metrics agreement: trace counts match the gateway/engine
//     counters (Released/Shed*/Matched/Rejected);
//   - service guarantee (when Totals.Drained): matched ⇔ completed —
//     no request reported served without its trip finishing, which
//     paired with the gateway's release-side window check means no
//     blown window is ever reported as served.
//
// The trace must be complete (drain with dropped == 0): ring overwrite
// would surface here as spurious conservation failures.
func Check(r io.Reader, tot Totals) (Report, error) {
	rep := Report{Shed: map[int64]int{}}
	states := map[int64]*reqState{}
	type release struct {
		seq uint64
		t   float64
		req int64
	}
	var releases []release
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	// Span lines carry interval attribution, not lifecycle claims
	// (cmd/tracetool is their consumer); only the events are checked.
	tr, err := obs.ReadTrace(r)
	if err != nil {
		return rep, fmt.Errorf("faults: %w", err)
	}
	for _, ev := range tr.Events {
		rep.Events++
		st := states[ev.Req]
		if st == nil {
			st = &reqState{}
			states[ev.Req] = st
		}
		switch ev.Event {
		case "admitted":
			st.admitted++
			rep.Admitted++
		case "queued":
			st.queued++
		case "released":
			st.released++
			rep.Released++
			releases = append(releases, release{seq: ev.Seq, t: ev.T, req: ev.Req})
		case "matched":
			st.matched++
			rep.Matched++
		case "rejected":
			st.rejected++
			rep.Rejected++
		case "completed":
			st.completed++
			rep.Completed++
		case "shed":
			rep.Shed[ev.Arg]++
			switch ev.Arg {
			case obs.ShedReasonDeadlineAdmit, obs.ShedReasonAdaptive:
				st.shedAdmit++
			case obs.ShedReasonDeadlineRelease, obs.ShedReasonOverflow, obs.ShedReasonWallSLO:
				st.shedPost++
			default:
				fail("req %d: unknown shed reason %d", ev.Req, ev.Arg)
			}
		case "generated", "trialed":
			// informational stages, no lifecycle constraint
		default:
			fail("req %d: unknown event %q", ev.Req, ev.Event)
		}
	}
	rep.Requests = len(states)

	for id, st := range states {
		if st.admitted > 1 {
			fail("req %d: admitted %d times (duplicated)", id, st.admitted)
		}
		if st.released > 1 {
			fail("req %d: released %d times (duplicated handoff)", id, st.released)
		}
		if st.queued > st.admitted {
			fail("req %d: queued %d times but admitted %d", id, st.queued, st.admitted)
		}
		if st.released > 0 && st.admitted == 0 {
			fail("req %d: released without admission", id)
		}
		if st.matched+st.rejected > 1 {
			fail("req %d: %d matched + %d rejected engine outcomes", id, st.matched, st.rejected)
		}
		if st.matched+st.rejected > st.released {
			fail("req %d: engine outcome without release", id)
		}
		if st.completed > 0 && st.matched == 0 {
			fail("req %d: completed without match", id)
		}
		if st.admitted == 1 && st.released+st.shedPost != 1 {
			fail("req %d: admitted but reached %d release + %d post-admission shed terminals (want exactly 1)",
				id, st.released, st.shedPost)
		}
		if st.admitted == 0 && st.shedPost > 0 {
			fail("req %d: post-admission shed without admission", id)
		}
		if tot.Drained && st.matched == 1 && st.completed == 0 {
			fail("req %d: matched but never completed (served promise lost)", id)
		}
	}

	// Watermark monotonicity over the drain ring's emission order.
	sort.Slice(releases, func(i, j int) bool { return releases[i].seq < releases[j].seq })
	for i := 1; i < len(releases); i++ {
		a, b := releases[i-1], releases[i]
		if b.t < a.t || (b.t == a.t && b.req < a.req) {
			fail("release order regression: (t=%.3f req=%d) released after (t=%.3f req=%d)",
				b.t, b.req, a.t, a.req)
		}
	}

	// Aggregate conservation and metrics agreement.
	shedPost := rep.Shed[obs.ShedReasonDeadlineRelease] + rep.Shed[obs.ShedReasonOverflow] + rep.Shed[obs.ShedReasonWallSLO]
	shedAdmit := rep.Shed[obs.ShedReasonDeadlineAdmit] + rep.Shed[obs.ShedReasonAdaptive]
	if rep.Admitted != rep.Released+shedPost {
		fail("conservation: admitted=%d != released=%d + post-admission shed=%d",
			rep.Admitted, rep.Released, shedPost)
	}
	if submitted := tot.Sourced - tot.Dropped; rep.Admitted+shedAdmit != submitted {
		fail("source accounting: admitted=%d + admission shed=%d != sourced=%d - dropped=%d",
			rep.Admitted, shedAdmit, tot.Sourced, tot.Dropped)
	}
	if rep.Released != tot.Released {
		fail("metrics disagree: trace released=%d, metrics released=%d", rep.Released, tot.Released)
	}
	if rep.Matched != tot.Matched {
		fail("metrics disagree: trace matched=%d, metrics matched=%d", rep.Matched, tot.Matched)
	}
	if rep.Rejected != tot.Rejected {
		fail("metrics disagree: trace rejected=%d, metrics rejected=%d", rep.Rejected, tot.Rejected)
	}
	if rep.Matched+rep.Rejected != rep.Released {
		fail("engine outcomes: matched=%d + rejected=%d != released=%d",
			rep.Matched, rep.Rejected, rep.Released)
	}
	if got := rep.Shed[obs.ShedReasonOverflow]; got != tot.ShedOverflow {
		fail("metrics disagree: trace overflow sheds=%d, metrics=%d", got, tot.ShedOverflow)
	}
	if got := rep.Shed[obs.ShedReasonDeadlineAdmit] + rep.Shed[obs.ShedReasonDeadlineRelease]; got != tot.ShedDeadline {
		fail("metrics disagree: trace deadline sheds=%d, metrics=%d", got, tot.ShedDeadline)
	}
	if got := rep.Shed[obs.ShedReasonAdaptive] + rep.Shed[obs.ShedReasonWallSLO]; got != tot.ShedAdaptive {
		fail("metrics disagree: trace adaptive sheds=%d, metrics=%d", got, tot.ShedAdaptive)
	}

	if len(errs) > 0 {
		return rep, errors.New("faults: invariants violated:\n  " + strings.Join(errs, "\n  "))
	}
	return rep, nil
}
