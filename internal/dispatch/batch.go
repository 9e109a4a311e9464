package dispatch

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Batch-window matching: instead of dispatching every request the moment it
// arrives, the engine collects arrivals for Config.BatchWindow seconds and
// matches the whole window at once — the standard batching route to
// real-time throughput at city scale (Simonetto et al.; Vakayil et al.).
// Within a window the batch is matched greedily in arrival order, so the
// outcome is deterministic and independent of worker/shard count; requests
// can be cancelled at any point before their window is flushed.

// Enqueue adds a request to the current batch window. If the request's
// arrival time falls past the window boundary, the pending batch is flushed
// at the boundary first. An immediate-mode engine (BatchWindow <= 0) simply
// dispatches the request, which makes Enqueue the one entry point drivers
// and gateway sinks need for both modes. A timestamp earlier than the engine clock is
// clamped to it, exactly as Submit does — otherwise a late-arriving
// request after a flush would drag the next window's start time backwards
// and distort every boundary that follows.
func (e *Engine) Enqueue(req sim.Request) {
	if e.cfg.BatchWindow <= 0 {
		e.Submit(req)
		return
	}
	if req.Time < e.clock {
		req.Time = e.clock // tolerate slightly out-of-order input
	}
	if len(e.pending) == 0 {
		e.batchStart = req.Time
	} else if req.Time >= e.batchStart+e.cfg.BatchWindow {
		e.flushAt(e.batchStart + e.cfg.BatchWindow)
		e.batchStart = req.Time
	}
	e.pending = append(e.pending, req)
}

// Cancel withdraws a request that is still waiting in the batch window.
// It reports whether the request was found and removed; a request that was
// already flushed (committed or rejected) cannot be cancelled. Cancelled
// requests are never counted as submitted.
func (e *Engine) Cancel(reqID int64) bool {
	for i := range e.pending {
		if e.pending[i].ID == reqID {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Pending returns the number of requests waiting in the current window.
func (e *Engine) Pending() int { return len(e.pending) }

// Flush matches the pending batch immediately, without waiting for the
// window boundary.
func (e *Engine) Flush() {
	if len(e.pending) == 0 {
		return
	}
	t := e.clock
	for i := range e.pending {
		if e.pending[i].Time > t {
			t = e.pending[i].Time
		}
	}
	e.flushAt(t)
}

// flushAt matches the pending batch against the fleet state at time t.
//
// Phase 1 fans out: each shard runs every request's trial insertions over
// its own vehicles, all against the quiescent start-of-flush state, and
// retains every feasible candidate's trial outcome — not just the
// per-shard best. Phase 2 walks the batch greedily in arrival order. A
// request none of whose feasible candidates have been committed to this
// flush keeps its cheapest retained trial (trial candidates stay valid
// until their vehicle mutates, and commits don't move vehicles, so
// candidate sets are stable for the whole flush). A request with dirty
// candidates is repaired incrementally: only the dirty
// previously-feasible candidates are re-trialed on their owning shards —
// a committed vehicle's incremental cost for a later request may have
// changed in either direction — and the fresh results are merged with the
// surviving clean trials under the same deterministic (cost, vehicle ID)
// total order. Candidates infeasible at the start of the flush are never
// revisited, and a request rejected in phase 1 stays rejected: adding a
// trip to a schedule never makes a previously infeasible insertion
// feasible. The outcome is exactly the matching a sequential greedy pass
// over the batch would produce — a full re-fan-out would merely recompute
// the clean trials and get identical results — at fan-out parallelism,
// and is therefore identical at every worker/shard count.
func (e *Engine) flushAt(t float64) {
	flushStart := time.Now() //vetkit:allow determinism flush latency metric only; assignment decisions depend solely on the virtual clock t
	flushSpanStart := e.ring.SpanStart()
	batch := e.pending
	e.pending = nil
	if t < e.clock {
		t = e.clock
	}
	e.clock = t

	// The whole flush working set lives in engine scratch, so steady-state
	// windows allocate nothing here beyond first-window growth.
	fs := &e.flush
	n, ns := len(batch), len(e.shards)
	fs.waits = grow(fs.waits, n)
	fs.epss = grow(fs.epss, n)
	fs.radii = grow(fs.radii, n)
	fs.pxs = grow(fs.pxs, n)
	fs.pys = grow(fs.pys, n)
	waits, epss, radii, pxs, pys := fs.waits, fs.epss, fs.radii, fs.pxs, fs.pys
	for i := range batch {
		batch[i].Time = t // the whole window is matched at the flush instant
		waits[i], epss[i] = e.shards[0].w.Budget(batch[i])
		radii[i] = e.shards[0].w.CandidateRadius(waits[i])
		pxs[i], pys[i] = e.cfg.Graph.Coord(batch[i].Pickup)
	}

	// Phase 1: retained per-vehicle trial outcomes for every request, with
	// per-request search time so ACRT stays attributable per request the
	// way immediate mode records it. Retention trades memory for repair
	// speed: a dense window holds O(requests × feasible candidates)
	// trials (each tree-mode trial a full candidate tree) instead of the
	// per-shard bests alone, released request by request as phase 2
	// consumes them.
	fs.p1flat = grow(fs.p1flat, n*ns)
	fs.durflat = grow(fs.durflat, n*ns)
	fs.p1 = grow(fs.p1, n)
	fs.durs = grow(fs.durs, n)
	p1, durs := fs.p1, fs.durs
	for i := range p1 {
		p1[i] = fs.p1flat[i*ns : (i+1)*ns]
		durs[i] = fs.durflat[i*ns : (i+1)*ns]
	}
	phase1Start := time.Now() //vetkit:allow determinism phase-1 latency metric only
	e.parallel(func(s *shard) {
		s.drainReportsUntil(&e.cfg, t)
		for i, req := range batch {
			started := time.Now() //vetkit:allow determinism per-trial duration metric only
			p1[i][s.id] = s.trialRetain(&e.cfg, req, pxs[i], pys[i], waits[i], epss[i], radii[i])
			durs[i][s.id] = time.Since(started) //vetkit:allow determinism per-trial duration metric only
		}
	})
	e.metrics.Phase1Latency.Record(time.Since(phase1Start).Nanoseconds()) //vetkit:allow determinism phase-1 latency metric only

	// Phase 2: greedy arrival-order commits with incremental conflict
	// repair.
	clear(fs.dirty)
	dirty := fs.dirty
	dirtyIDs := fs.dirtyIDs // per-shard retrial sets (scratch)
	fresh := fs.fresh
	needy := fs.needy[:0] // shards with dirty candidates (scratch)
	for i, req := range batch {
		e.metrics.Requests++
		e.live.Add(obs.Requests, 1)
		// Per-request search latency, attributed the way immediate mode
		// records it: the shards ran this request's phase-1 trials
		// concurrently when a pool exists (wall ≈ the slowest shard) and
		// back-to-back otherwise (wall = the sum), plus the repair
		// retrial's wall time below.
		var search time.Duration
		for _, d := range durs[i] {
			if e.tasks == nil {
				search += d
			} else if d > search {
				search = d
			}
		}
		best, dirtyCount, trialed := planRequest(p1[i], dirty, dirtyIDs)
		if dirtyCount > 0 {
			// Incremental repair: re-trial only the dirty candidates on
			// their owning shards — usually one shard, run inline — and
			// merge with the surviving clean trials. A full re-fan-out
			// would have re-run all `trialed` insertions for this request.
			retrial := time.Now() //vetkit:allow determinism repair latency metric only; repair outcome depends on trials, not time
			repairStart := e.ring.SpanStart()
			needy = needy[:0]
			for sid, ids := range dirtyIDs {
				if len(ids) > 0 {
					needy = append(needy, e.shards[sid])
				}
			}
			req := req
			e.parallelOn(needy, func(s *shard) {
				fresh[s.id] = s.retrial(&e.cfg, req, pxs[i], pys[i], waits[i], epss[i], dirtyIDs[s.id])
			})
			for _, s := range needy {
				if better(fresh[s.id], best) {
					best = fresh[s.id]
				}
			}
			repairNs := time.Since(retrial) //vetkit:allow determinism repair latency metric only
			search += repairNs
			e.ring.EmitSpan(obs.Span{
				ID:     obs.SpanID(req.ID, obs.StageRepair, 0),
				Parent: obs.RootSpanID(req.ID),
				Req:    req.ID, Stage: obs.StageRepair, T: req.Time,
				Arg: int64(dirtyCount), Start: repairStart,
			})
			e.metrics.RepairLatency.Record(repairNs.Nanoseconds())
			e.metrics.ConflictsRepaired++
			e.live.Add(obs.Conflicts, 1)
			e.metrics.RetrialTrialsSaved += trialed - dirtyCount
		}
		e.metrics.AddACRT(search)
		if best.veh < 0 {
			e.metrics.Rejected++
			e.live.Add(obs.Rejected, 1)
			e.ring.Emit(obs.KindRejected, req.ID, req.Time, -1)
			e.assigned[req.ID] = -1
		} else {
			s := e.shards[ShardIndex(int64(best.veh), len(e.shards))]
			s.w.Commit(s.vehicle(best.veh), best.trial)
			dirty[best.veh] = true
			e.assigned[req.ID] = best.veh
			e.ring.Emit(obs.KindMatched, req.ID, req.Time, int64(best.veh))
		}
		// This request's retained trials are consumed: hand the retention
		// buffers back to their shards for the next flush.
		for sid := range p1[i] {
			p := &p1[i][sid]
			if p.feas != nil {
				clear(p.feas) // drop candidate pointers before pooling
				e.shards[sid].feasFree = append(e.shards[sid].feasFree, p.feas[:0])
			}
			*p = phase1{}
		}
	}
	fs.needy = needy[:0]
	// Recycle the window's request buffer for the next Enqueue run.
	e.pending = batch[:0]
	e.metrics.FlushLatency.Record(time.Since(flushStart).Nanoseconds()) //vetkit:allow determinism flush latency metric only
	// Fleet-level flush span (Req < 0): the whole window's wall time, one
	// per flush, keyed by the engine's flush counter.
	e.ring.EmitSpan(obs.Span{
		ID:  obs.SpanID(-1, obs.StageFlush, e.flushSeq),
		Req: -1, Stage: obs.StageFlush, T: t,
		Arg: int64(n), Start: flushSpanStart,
	})
	e.flushSeq++
	e.live.Add(obs.Flushes, 1)
}

// planRequest resolves one batch request against the flush's dirty set. It
// returns the cheapest retained trial among the request's clean candidates
// (veh -1 if none), fills dirtyIDs with the dirty previously-feasible
// candidates per shard (the incremental-repair retrial sets), and reports
// how many trial insertions phase 1 performed for this request — the
// number a full re-fan-out would re-run.
func planRequest(p1 []phase1, dirty map[int]bool, dirtyIDs [][]int) (clean shardBest, dirtyCount, trialed int) {
	clean = shardBest{veh: -1}
	for s, p := range p1 {
		dirtyIDs[s] = dirtyIDs[s][:0]
		trialed += p.trialed
		for _, vt := range p.feas {
			if dirty[vt.veh] {
				dirtyIDs[s] = append(dirtyIDs[s], vt.veh)
				dirtyCount++
				continue
			}
			if b := (shardBest{veh: vt.veh, trial: vt.trial}); better(b, clean) {
				clean = b
			}
		}
	}
	return clean, dirtyCount, trialed
}
