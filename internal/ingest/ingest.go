// Package ingest is the concurrent front door of the dispatcher: a
// multi-producer request gateway that sits between many request sources
// (API handlers, replayed city feeds, the internal/workload generator) and
// the single-consumer matching engine (dispatch.Engine), whose exported
// methods are driven from one goroutine.
//
// Producers submit into per-shard bounded MPSC queues keyed by the same
// partitioning function the dispatch engine uses (dispatch.ShardIndex), so
// a request's queue affinity follows the fleet partition. An admission
// stage stamps every arrival with a logical clock — the request's own
// event time, its unique ID, and a Lamport-style admission tick — which
// totally orders concurrent arrivals no matter how the producer goroutines
// interleave. The drain protocol releases admitted requests to the engine
// in stamped order behind a producer watermark: a request is handed off
// only once every open producer has advanced past its event time, so the
// sequence the engine sees is exactly the (Time, ID)-sorted single-producer
// sequence, and with shedding off the resulting assignments are
// bit-identical to feeding the engine directly (TestIngressEquivalence
// enforces this at 1/4/8 producers × 1/4/8 workers). Note the tie rule:
// requests with equal event times are released in ID order, so a direct
// feed is equivalent only if it also orders ties by ID — workload.ReadCSV
// and the workload generator both produce (Time, ID)-sorted streams.
//
// Backpressure is configurable per Config.Policy: Block stalls a producer
// on a full queue (the lossless default), ShedOldest evicts the oldest
// queued request to admit the new one (per-producer fair: the victim comes
// from the producer occupying the most queue slots, so one flooding
// producer cannot evict a polite one's requests), ShedDeadline additionally
// refuses — at admission and again at handoff — any request whose
// waiting-time window has already been blown by gateway lag, so the engine
// never spends trial insertions on a rider the service guarantee has
// already lost. Adaptive replaces the fixed queue-depth backpressure with
// an SLO-driven admission controller: the drainer measures the p99 gateway
// residence and the matching backlog, and steers a shed probability
// (per-mille, AIMD with hysteresis bands) that producers apply at
// admission, so goodput degrades smoothly under overload instead of
// cliff-diving when queues fill.
package ingest

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Policy selects what a producer does when its target queue is full, and
// whether deadline-blown requests are shed.
type Policy int

const (
	// Block stalls the producer until the drain frees queue space. No
	// request is ever dropped; this is the policy under which the gateway
	// is assignment-equivalent to the single-producer path.
	Block Policy = iota
	// ShedOldest evicts the oldest request in the full queue and admits
	// the new one, bounding producer latency at the price of dropped
	// riders (counted as ShedOverflow).
	ShedOldest
	// ShedDeadline blocks on overflow like Block, but refuses any request
	// whose waiting-time window is already blown by gateway lag — at
	// admission, and again at handoff for requests the window expired on
	// while they were queued (counted as ShedDeadline).
	ShedDeadline
	// Adaptive is SLO-driven admission: producers shed incoming requests
	// with a probability the drainer's controller steers from the live
	// p99 gateway residence and matching backlog (counted as
	// ShedAdaptive), full queues evict fairly like ShedOldest (counted
	// as ShedOverflow), blown simulated-time windows are refused like
	// ShedDeadline (counted as ShedDeadline), and requests whose
	// wall-clock residence exceeded Config.WallSLO are shed at handoff
	// (counted as ShedAdaptive) — so everything the engine receives is
	// still inside both its service-guarantee window and the operator's
	// latency SLO.
	Adaptive
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case ShedOldest:
		return "shed-oldest"
	case ShedDeadline:
		return "deadline"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the CLI spellings (block, shed-oldest, deadline,
// adaptive) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{Block, ShedOldest, ShedDeadline, Adaptive} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("ingest: unknown shed policy %q", s)
}

// Config parameterizes a Gateway. Zero values select the defaults noted
// per field.
type Config struct {
	// Queues is the number of admission queues; pass the engine's shard
	// count so queue affinity follows the fleet partition (default 1).
	Queues int
	// Depth is each queue's capacity in requests (default 256).
	Depth int
	// Policy is the backpressure policy (default Block).
	Policy Policy
	// WaitSeconds is the fleet-default waiting-time window used by
	// ShedDeadline for requests without a per-request override
	// (default 600, matching sim.Config).
	WaitSeconds float64
	// WallSLO is the wall-clock gateway-residence target the Adaptive
	// policy steers toward: the controller raises the shed probability
	// while the measured p99 residence exceeds it, and requests that
	// individually blow it are shed at handoff (default 500ms; ignored
	// by the other policies).
	WallSLO time.Duration

	// Trace, when non-nil, captures request lifecycle events (admitted,
	// queued, released, shed) into per-producer and drainer ring buffers.
	// Tracing changes no control flow: assignments stay bit-identical to
	// an untraced run (TestIngressEquivalenceTraced).
	Trace *obs.Tracer
	// Live is where the gateway counts its releases (obs.Admitted), sheds
	// and backlog, readable mid-run; MetricsInto reads the counts back
	// from it. It may be shared with the engine, which counts other rows,
	// but not with another gateway. Nil gives the gateway a private one.
	Live *obs.Live
	// SLO, when non-nil, receives one outcome per request the gateway
	// settles against the wall-clock SLO: good for releases within
	// WallSLO, bad for late releases, wall-SLO handoff sheds, and
	// adaptive admission sheds. Simulated-time deadline sheds and
	// overflow evictions are deliberately excluded — they are capacity
	// policy, not latency-contract outcomes.
	SLO *obs.SLOTracker
}

func (c Config) withDefaults() Config {
	if c.Queues <= 0 {
		c.Queues = 1
	}
	if c.Depth <= 0 {
		c.Depth = 256
	}
	if c.WaitSeconds == 0 {
		c.WaitSeconds = 600
	}
	if c.WallSLO <= 0 {
		c.WallSLO = 500 * time.Millisecond
	}
	return c
}

// stamped is a request plus its admission stamp. The total order over
// stamps — event time, then request ID, then admission tick — is what the
// drain releases in; (T, ID) is producer-interleaving-independent, and the
// Lamport tick only breaks ties between duplicate (T, ID) pairs so the
// order stays total on adversarial input.
type stamped struct {
	req     sim.Request
	seq     uint64    // Lamport admission tick, unique per admitted request
	wall    time.Time // admission wall time, for the IngressWait metric
	prod    int32     // submitting producer's index, for fair eviction
	admitNs int64     // tracer-epoch admission offset, for the queue_wait span (0 = tracing off)
}

// before reports whether a precedes b in stamped order.
func (a stamped) before(b stamped) bool {
	if a.req.Time != b.req.Time {
		return a.req.Time < b.req.Time
	}
	if a.req.ID != b.req.ID {
		return a.req.ID < b.req.ID
	}
	return a.seq < b.seq
}

// Gateway is the multi-producer request front door. Producers (one handle
// per goroutine) push concurrently; one goroutine drains. The Gateway is
// not reusable after Drain returns.
type Gateway struct {
	cfg    Config
	queues []*queue
	wake   chan struct{} // producer -> drainer nudge, capacity 1

	seq     atomic.Uint64 // Lamport admission clock
	nowBits atomic.Uint64 // float64 bits of the max event time admitted

	mu        sync.Mutex
	producers []*Producer

	// Adaptive-admission shared state: the drainer's controller stores
	// the current shed probability (per mille) and producers read it at
	// admission.
	shedPM atomic.Int64

	// The gateway's counters: cfg.Live, or a private Live when none was
	// given. Producers and the drainer both count into it.
	live *obs.Live

	// Drainer-owned state; touched only by Drain's goroutine.
	heap      stampHeap
	ctrl      *controller    // nil unless Policy == Adaptive
	waitHist  *obs.Histogram // gateway residence wall time, ns
	lagHist   *obs.Histogram // release lag in simulated ms, Now()-req.Time
	drainRing *obs.Ring      // release/shed lifecycle events (nil = off)
}

// New creates a gateway. The engine it will feed is not bound here; Drain
// takes the handoff sink.
func New(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:       cfg,
		wake:      make(chan struct{}, 1),
		live:      cfg.Live,
		waitHist:  obs.NewHistogram(),
		lagHist:   obs.NewHistogram(),
		drainRing: cfg.Trace.Ring("drain"),
	}
	if g.live == nil {
		g.live = &obs.Live{}
	}
	for i := 0; i < cfg.Queues; i++ {
		g.queues = append(g.queues, newQueue(cfg.Depth))
	}
	if cfg.Policy == Adaptive {
		g.ctrl = newController(cfg.WallSLO, cfg.Queues*cfg.Depth)
	}
	// The drainer's merge heap holds at most one full sweep of every
	// queue; sizing it up front keeps push from growing the backing
	// array request by request on the drain hot path.
	g.heap = make(stampHeap, 0, cfg.Queues*cfg.Depth)
	return g
}

// Queues returns the admission-queue count.
func (g *Gateway) Queues() int { return len(g.queues) }

// Now returns the gateway's logical clock: the highest event time any
// producer has submitted. It only advances, so lateness computed against
// it is a lower bound on a request's true lag.
func (g *Gateway) Now() float64 {
	return math.Float64frombits(g.nowBits.Load())
}

// advanceNow lifts the logical clock to at least t.
func (g *Gateway) advanceNow(t float64) {
	for {
		old := g.nowBits.Load()
		if math.Float64frombits(old) >= t {
			return
		}
		if g.nowBits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// window resolves a request's waiting-time budget in seconds.
func (g *Gateway) window(req sim.Request) float64 {
	if req.WaitSeconds > 0 {
		return req.WaitSeconds
	}
	return g.cfg.WaitSeconds
}

// Producers registers n producer handles; each handle is then owned by
// one goroutine. Registration is safe concurrently with Drain — the drain
// releases nothing until at least one producer exists — but every handle
// must be registered before the first producer closes, or the drain may
// finish without it.
func (g *Gateway) Producers(n int) []*Producer {
	g.mu.Lock()
	out := make([]*Producer, n)
	for i := range out {
		p := &Producer{gw: g, id: int32(len(g.producers))}
		p.ring = g.cfg.Trace.Ring(fmt.Sprintf("producer-%d", len(g.producers)))
		p.watermark.Store(math.Float64bits(math.Inf(-1)))
		g.producers = append(g.producers, p)
		out[i] = p
	}
	g.mu.Unlock()
	g.nudge()
	return out
}

// watermarkFloor returns the smallest watermark over all producers — the
// event time below which no further submission can arrive. +Inf once every
// producer has closed; -Inf while any producer has yet to submit, or
// before any producer is registered at all (so a drain that races producer
// registration releases nothing prematurely).
func (g *Gateway) watermarkFloor() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.producers) == 0 {
		return math.Inf(-1)
	}
	floor := math.Inf(1)
	for _, p := range g.producers {
		if w := math.Float64frombits(p.watermark.Load()); w < floor {
			floor = w
		}
	}
	return floor
}

// nudge wakes the drainer without blocking.
func (g *Gateway) nudge() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// Producer is one goroutine's submission handle.
type Producer struct {
	gw        *Gateway
	id        int32         // registration index, carried on stamps
	ring      *obs.Ring     // this producer's lifecycle events (nil = off)
	watermark atomic.Uint64 // float64 bits; monotone, single-writer
	last      float64       // last submitted event time (clamp floor)
	acc       int64         // adaptive-shed error accumulator (per mille)
	started   bool
	closed    bool
}

// Submit admits one request, stamping it into total order and enqueueing
// it on its shard queue. Event times must be nondecreasing per producer;
// an out-of-order time is clamped to the producer's previous one, exactly
// as the engine clamps against its clock. It reports whether the request
// was admitted — false only when ShedDeadline refuses a request whose
// window is already blown (a shed-oldest eviction drops the queue head,
// not the submission).
//
// Submit may block when the target queue is full and the policy is Block
// or ShedDeadline; the drain frees it.
func (p *Producer) Submit(req sim.Request) bool {
	if p.closed {
		panic("ingest: Submit on a closed Producer")
	}
	admitStart := p.ring.SpanStart()
	if !p.started {
		p.started = true
		p.last = math.Inf(-1)
	}
	if req.Time < p.last {
		req.Time = p.last
	}
	p.last = req.Time
	// Watermark before enqueue: once a drainer observes this store, the
	// request is either already in its queue or will carry an event time
	// >= the watermark, which is what makes strict-below-floor release
	// order-safe.
	p.watermark.Store(math.Float64bits(req.Time))
	g := p.gw
	g.advanceNow(req.Time)
	policy := g.cfg.Policy
	if policy == ShedDeadline || policy == Adaptive {
		if lag := g.Now() - req.Time; lag > g.window(req) {
			g.live.Add(obs.ShedDeadline, 1)
			p.ring.Emit(obs.KindShed, req.ID, req.Time, obs.ShedReasonDeadlineAdmit)
			g.nudge() // the watermark advanced; release may be unblocked
			return false
		}
	}
	if policy == Adaptive {
		// Deterministic probabilistic shed: a per-producer error
		// accumulator against the controller's per-mille level, so a
		// level of 250 sheds exactly every 4th request per producer —
		// no RNG, same discipline as the obs counter sampling.
		if pm := g.shedPM.Load(); pm > 0 {
			p.acc += pm
			if p.acc >= 1000 {
				p.acc -= 1000
				g.live.Add(obs.ShedAdaptive, 1)
				g.cfg.SLO.Observe(false)
				p.ring.Emit(obs.KindShed, req.ID, req.Time, obs.ShedReasonAdaptive)
				g.nudge()
				return false
			}
		}
	}
	s := stamped{req: req, seq: g.seq.Add(1), wall: time.Now(), prod: p.id, admitNs: p.ring.SpanStart()} //vetkit:allow determinism admission wall stamp: feeds the wall-clock SLO policy, which is wall-time by definition
	p.ring.Emit(obs.KindAdmitted, req.ID, req.Time, int64(s.seq))
	qi := dispatch.ShardIndex(req.ID, len(g.queues))
	q := g.queues[qi]
	// Nudge on both sides of the push: before, so a push that blocks on a
	// full queue always has a drainer sweep pending to free it; after, so
	// the enqueued request itself is noticed. Under ShedOldest/Adaptive
	// the push makes room by fairly evicting a queued entry, so the
	// submitted request itself is always admitted.
	g.nudge()
	if evicted, victim := q.push(s, policy == ShedOldest || policy == Adaptive); evicted {
		g.live.Add(obs.ShedOverflow, 1)
		// The eviction happened under this producer's push, so its ring
		// is the single-writer home for the victim's shed event even
		// when the victim was admitted by another producer.
		p.ring.Emit(obs.KindShed, victim.req.ID, victim.req.Time, obs.ShedReasonOverflow)
	}
	p.ring.Emit(obs.KindQueued, req.ID, req.Time, int64(qi))
	p.ring.EmitSpan(obs.Span{
		ID: obs.SpanID(req.ID, obs.StageAdmit, 0), Parent: obs.RootSpanID(req.ID),
		Req: req.ID, Stage: obs.StageAdmit, T: req.Time, Arg: int64(qi),
		Start: admitStart,
	})
	g.nudge()
	return true
}

// Skip advances the producer's watermark and the gateway clock past t
// without submitting anything — the accounting for a request lost
// upstream of admission (a crashed producer in a fault plan, a request
// dropped by an upstream filter). Without it the drain would hold every
// other producer's releases behind this producer's stalled watermark.
func (p *Producer) Skip(t float64) {
	if p.closed {
		panic("ingest: Skip on a closed Producer")
	}
	if !p.started {
		p.started = true
		p.last = math.Inf(-1)
	}
	if t < p.last {
		t = p.last
	}
	p.last = t
	p.watermark.Store(math.Float64bits(t))
	p.gw.advanceNow(t)
	p.gw.nudge()
}

// Close marks the producer finished: its watermark rises to +Inf so the
// drain can release everything behind it. Close is idempotent.
func (p *Producer) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.watermark.Store(math.Float64bits(math.Inf(1)))
	p.gw.nudge()
}

// Drain consumes the gateway: it releases admitted requests to sink in
// stamped order, blocking as needed, and returns once every producer has
// closed and every queue is empty. It must be called from exactly one
// goroutine, concurrently with the producers.
//
// Release discipline: a request is handed to sink only when its event time
// is strictly below the producer watermark floor (or unconditionally once
// all producers closed), so no later submission can ever precede it in
// stamped order.
//
// Memory caveat: every sweep moves queued requests into the drainer's
// reorder heap even while the watermark floor blocks their release, so
// gateway memory is bounded by producer time-skew, not by Queues x Depth —
// under Block, a producer lagging far behind the others lets the heap grow
// by one entry per submission the fast producers make. ingest.Drive bounds
// that skew structurally (round-robin fan-out over small buffered
// channels); external producers under Block should likewise keep their
// event times loosely synchronized or bound their own skew.
func (g *Gateway) Drain(sink func(sim.Request)) {
	for {
		// Floor first, queues second: any request with an event time below
		// the floor read here was already enqueued when the floor was
		// computed (its producer's watermark had to advance past it), so
		// the sweep below cannot miss it.
		floor := g.watermarkFloor()
		for _, q := range g.queues {
			q.drainInto(&g.heap)
		}
		// Backlog signal for the adaptive controller: everything resident
		// after the sweep, before releases — what has piled up since the
		// drainer last came around (i.e. while the engine was matching).
		backlog := g.heap.Len()
		released := false
		for g.heap.Len() > 0 {
			// Strictly below the floor: an event time equal to the floor
			// could still be preceded (in ID order) by an in-flight
			// submission at the same time. A +Inf floor releases all.
			if top := g.heap.peek(); top.req.Time >= floor {
				break
			}
			s := g.heap.pop()
			released = true
			lag := g.Now() - s.req.Time
			policy := g.cfg.Policy
			if (policy == ShedDeadline || policy == Adaptive) && lag > g.window(s.req) {
				g.live.Add(obs.ShedDeadline, 1)
				g.drainRing.Emit(obs.KindShed, s.req.ID, s.req.Time, obs.ShedReasonDeadlineRelease)
				continue
			}
			relStart := g.drainRing.SpanStart()
			wait := time.Since(s.wall) //vetkit:allow determinism wall-clock SLO wait: the Adaptive policy sheds on real elapsed time by design
			if policy == Adaptive && wait > g.cfg.WallSLO {
				// The request already blew the operator's latency SLO
				// inside the gateway; handing it to the engine would
				// only report a blown promise as served. Shedding here
				// is also what makes measured goodput honest: every
				// release is within-SLO by construction.
				g.live.Add(obs.ShedAdaptive, 1)
				g.cfg.SLO.Observe(false)
				g.drainRing.Emit(obs.KindShed, s.req.ID, s.req.Time, obs.ShedReasonWallSLO)
				g.ctrl.observe(wait)
				continue
			}
			if g.ctrl != nil {
				g.ctrl.observe(wait)
			}
			g.live.Add(obs.Admitted, 1)
			g.waitHist.Record(wait.Nanoseconds())
			g.lagHist.Record(int64(lag * 1000)) // simulated seconds -> ms
			g.cfg.SLO.Observe(wait <= g.cfg.WallSLO)
			g.drainRing.Emit(obs.KindReleased, s.req.ID, s.req.Time, wait.Nanoseconds())
			g.drainRing.EmitSpan(obs.Span{
				ID: obs.SpanID(s.req.ID, obs.StageQueueWait, 0), Parent: obs.RootSpanID(s.req.ID),
				Req: s.req.ID, Stage: obs.StageQueueWait, T: s.req.Time, Arg: int64(s.seq),
				Start: s.admitNs, End: relStart,
			})
			// Close the release span before the sink call: the engine's
			// match span starts inside sink, and the analyzer partitions
			// wall time, so release must not overlap it.
			g.drainRing.EmitSpan(obs.Span{
				ID: obs.SpanID(s.req.ID, obs.StageRelease, 0), Parent: obs.RootSpanID(s.req.ID),
				Req: s.req.ID, Stage: obs.StageRelease, T: s.req.Time, Arg: wait.Nanoseconds(),
				Start: relStart,
			})
			sink(s.req)
		}
		if g.ctrl != nil {
			if pm, changed := g.ctrl.maybeAdjust(backlog); changed {
				g.shedPM.Store(pm)
				g.live.Set(obs.ShedLevel, pm)
			}
		}
		g.live.Set(obs.Backlog, int64(g.heap.Len()))
		if math.IsInf(floor, 1) && g.heap.Len() == 0 && g.queuesEmpty() {
			return
		}
		if !released {
			<-g.wake
		}
	}
}

func (g *Gateway) queuesEmpty() bool {
	for _, q := range g.queues {
		if q.len() > 0 {
			return false
		}
	}
	return true
}

// MetricsInto folds the gateway's ingress counters into m. Call after
// Drain returns (or between fan-ins, when producers are quiescent). The
// SLO account is not folded: it stays in Config.SLO.
func (g *Gateway) MetricsInto(m *sim.Metrics) {
	m.Admitted += int(g.live.Load(obs.Admitted))
	m.ShedOverflow += int(g.live.Load(obs.ShedOverflow))
	m.ShedDeadline += int(g.live.Load(obs.ShedDeadline))
	m.ShedAdaptive += int(g.live.Load(obs.ShedAdaptive))
	for _, q := range g.queues {
		m.IngressQueuePeak = max(m.IngressQueuePeak, q.peakDepth())
	}
	if g.ctrl != nil {
		if pm := int(g.ctrl.peakPM); pm > m.AdmissionShedPeakPM {
			m.AdmissionShedPeakPM = pm
		}
		m.AdmissionTransitions += g.ctrl.transitions
	}
	m.IngressWait.Merge(g.waitHist)
	m.ReleaseLagMs.Merge(g.lagHist)
}

// ShedByProducer reports, per producer index, how many of that
// producer's queued requests were evicted by overflow shedding — the
// fairness ledger. Call at quiescence.
func (g *Gateway) ShedByProducer() []int {
	g.mu.Lock()
	n := len(g.producers)
	g.mu.Unlock()
	out := make([]int, n)
	for _, q := range g.queues {
		for pid, c := range q.evictions() {
			if pid < len(out) {
				out[pid] += c
			}
		}
	}
	return out
}

// Metrics returns a fresh sim.Metrics carrying only the gateway's ingress
// counters.
func (g *Gateway) Metrics() *sim.Metrics {
	m := sim.NewMetrics()
	g.MetricsInto(m)
	return m
}

// stampHeap is a min-heap over stamped order; drainer-local, so no
// locking. Hand-rolled rather than container/heap (the codebase norm
// elsewhere) because this sits on the gateway's fan-in hot path — the
// interface-based API would box every stamped value per push/pop, and the
// raw gateway moves millions of requests a second (BenchmarkIngressFanIn).
// TestStampHeapOrdering pins the heap property.
type stampHeap []stamped

func (h stampHeap) Len() int { return len(h) }

func (h stampHeap) peek() stamped { return h[0] }

func (h *stampHeap) push(s stamped) {
	*h = append(*h, s)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].before((*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *stampHeap) pop() stamped {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = stamped{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l].before((*h)[small]) {
			small = l
		}
		if r < n && (*h)[r].before((*h)[small]) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}
