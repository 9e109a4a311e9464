// Package faults is a deterministic, seed-driven fault-injection layer
// for the ingress → dispatch → oracle pipeline. It exposes hooks at the
// three seams where production deployments actually fail:
//
//   - ingress producers: crash/restart (a contiguous span of requests is
//     lost), clock skew (a subset of producers stamps event times ahead
//     of the others), and burst storms (timestamp collapse so many
//     requests carry the same event time);
//   - dispatch workers: per-shard fan-out stalls and slowed trial
//     insertions;
//   - oracle lookups: latency spikes and transient errors that a
//     bounded-retry facade (sp.Retry over faults.FlakyOracle) must
//     absorb or degrade from gracefully.
//
// Every decision is made by the deterministic counter pattern used for
// obs latency sampling (the cache facades' 1-in-64 dist sampler): a plain
// per-hook counter plus a splitmix64 phase derived from (plan seed,
// stream id), compared against a modulus window. No wall clocks, no
// math/rand — the same plan over the same workload injects the same
// faults in the same places, so failures found under a plan reproduce.
//
// All hook types are nil-safe: a nil *Injector hands out nil hooks, and
// every hook method on a nil receiver is a no-op that returns the
// pass-through answer. Wiring the hooks into a pipeline with faults
// disabled is therefore bit-identical to not wiring them at all (the
// equivalence tests prove it), which keeps the instrumented build the
// only build.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrInjected is the transient error FlakyOracle returns for an
// injected lookup failure. sp.Retry treats it like any other error:
// bounded retries with exponential backoff, then degradation to the
// unreachable sentinel.
var ErrInjected = errors.New("faults: injected transient oracle error")

// Action is a ProducerHook's verdict on one submission.
type Action int

const (
	// ActionSubmit passes the request through (possibly with a skewed
	// or collapsed timestamp).
	ActionSubmit Action = iota
	// ActionDrop loses the request before admission, as a crashed
	// producer would. The driver must advance the producer's watermark
	// past the dropped timestamp (Producer.Skip) or the drain stalls.
	ActionDrop
	// ActionPanic instructs the driver to panic the producer goroutine
	// — exercising ingest.Drive's recovery path, not simulating a
	// graceful failure.
	ActionPanic
)

// ProducerPlan configures ingress-seam faults. Zero values disable the
// corresponding fault.
type ProducerPlan struct {
	// SkewSeconds is added to every odd-indexed producer's event
	// timestamps, modelling a fleet where half the submitters have a
	// fast clock. Skew is constant per producer, so per-producer
	// monotonicity is preserved while the cross-producer watermark
	// floor lags.
	SkewSeconds float64
	// BurstEvery > 0 anchors a burst every BurstEvery-th submission:
	// the next BurstLen requests have their timestamps collapsed onto
	// the anchor's, forcing stamped-order ties through the (time, ID,
	// seq) comparator.
	BurstEvery int
	BurstLen   int
	// CrashEvery > 0 crashes the producer every CrashEvery-th
	// submission, dropping that request and the following CrashSpan-1
	// ("restart" loses a contiguous span, not scattered singles).
	CrashEvery int
	CrashSpan  int
	// PanicAt > 0 makes producer 0's PanicAt-th submission return
	// ActionPanic. Only producer 0 panics so the other producers'
	// watermark release path is what the recovery test observes.
	PanicAt int
}

func (p ProducerPlan) enabled() bool {
	return p.SkewSeconds != 0 || p.BurstEvery > 0 || p.CrashEvery > 0 || p.PanicAt > 0
}

// WorkerPlan configures dispatch-seam faults (latency only: a stalled
// worker is slow, not wrong, so assignments stay bit-identical to the
// fault-free run and the equivalence suites double as fault tests).
type WorkerPlan struct {
	// StallEvery > 0 sleeps Stall before every StallEvery-th fan-out
	// on each shard.
	StallEvery int
	Stall      time.Duration
	// SlowEvery > 0 sleeps Slow before every SlowEvery-th trial
	// insertion on each shard.
	SlowEvery int
	Slow      time.Duration
}

func (p WorkerPlan) enabled() bool { return p.StallEvery > 0 || p.SlowEvery > 0 }

// OraclePlan configures oracle-seam faults.
type OraclePlan struct {
	// ErrEvery > 0 fails a distance lookup whenever its counter falls
	// in the first ErrBurst slots of each ErrEvery-wide window —
	// consecutive failures, so ErrBurst relative to the retry budget
	// decides whether sp.Retry recovers or degrades to unreachable.
	ErrEvery int
	ErrBurst int
	// SpikeEvery > 0 sleeps Spike before every SpikeEvery-th lookup
	// (dist or path), modelling a slow backend shard.
	SpikeEvery int
	Spike      time.Duration
}

func (p OraclePlan) enabled() bool { return p.ErrEvery > 0 || p.SpikeEvery > 0 }

// Plan is one named, seeded fault scenario.
type Plan struct {
	Name     string
	Seed     uint64
	Producer ProducerPlan
	Worker   WorkerPlan
	Oracle   OraclePlan
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.Producer.enabled() || p.Worker.enabled() || p.Oracle.enabled()
}

// Injector hands out per-stream hooks for one Plan. Hook registration
// (Producer/Worker/Oracle calls) is mutex-guarded; the hooks themselves
// are single-writer like the obs rings — each belongs to exactly one
// goroutine at a time (one producer, one shard, one oracle facade) and
// must not be shared. Stats may be read only at quiescence.
//
// All methods are nil-safe: a nil *Injector returns nil hooks.
type Injector struct {
	plan  Plan
	trace *obs.Tracer // nil = injections are not spanned

	mu        sync.Mutex
	producers []*ProducerHook
	workers   []*WorkerHook
	oracles   []*OracleHook
}

// New builds an injector for plan. New(Plan{}) is a valid "inject
// nothing" injector; nil *Injector works too and is cheaper.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// Plan returns the plan the injector was built with (zero Plan for nil).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// SetTrace attaches a tracer so latency injections (worker stalls, slow
// trials, oracle spikes) are recorded as overlay spans — how much
// injected latency each request absorbed, attributable next to the
// pipeline stages in the same trace. Error injections (FailDist) are
// deliberately not spanned: they have no duration, and their effect
// already surfaces as retry latency inside the stage that absorbed them.
// Call before the first hook registration; hooks registered earlier stay
// unspanned. Nil-safe on both sides.
func (in *Injector) SetTrace(t *obs.Tracer) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.trace = t
	in.mu.Unlock()
}

// Producer registers and returns the hook for the next producer, in
// registration order (producer 0, 1, ...). Returns nil on a nil
// injector.
func (in *Injector) Producer() *ProducerHook {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	h := &ProducerHook{
		plan:  in.plan.Producer,
		id:    len(in.producers),
		phase: phaseFor(in.plan.Seed, 0x70726f64, uint64(len(in.producers))),
	}
	in.producers = append(in.producers, h)
	return h
}

// Worker registers and returns the hook for the next dispatch shard, in
// registration order. Returns nil on a nil injector.
func (in *Injector) Worker() *WorkerHook {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	h := &WorkerHook{
		plan:  in.plan.Worker,
		phase: phaseFor(in.plan.Seed, 0x776f726b, uint64(len(in.workers))),
		ring:  in.trace.Ring(fmt.Sprintf("fault-worker-%d", len(in.workers))),
	}
	in.workers = append(in.workers, h)
	return h
}

// Oracle registers and returns the hook for the next oracle facade, in
// registration order. Returns nil on a nil injector.
func (in *Injector) Oracle() *OracleHook {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	h := &OracleHook{
		plan:  in.plan.Oracle,
		phase: phaseFor(in.plan.Seed, 0x6f72636c, uint64(len(in.oracles))),
		ring:  in.trace.Ring(fmt.Sprintf("fault-oracle-%d", len(in.oracles))),
	}
	in.oracles = append(in.oracles, h)
	return h
}

// phaseFor decorrelates streams: different (seam, stream index) pairs
// under the same seed start their counter windows at different offsets,
// so e.g. all producers don't crash on the same submission index.
func phaseFor(seed, seam, idx uint64) uint64 {
	return splitmix64(seed ^ seam*0x9e3779b97f4a7c15 ^ idx)
}

// splitmix64 is the same finalizer the cache stripe hash uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stats aggregates injection counts across every hook the injector
// handed out. Read only at quiescence (after Drive/Drain return).
type Stats struct {
	Crashes      int // producer crash events (each drops a span)
	Dropped      int // requests lost to crashes
	Skewed       int // requests with skewed timestamps
	Bursted      int // requests with collapsed timestamps
	Panics       int // ActionPanic verdicts issued
	Stalls       int // worker fan-out stalls
	SlowTrials   int // slowed trial insertions
	OracleErrors int // injected transient lookup errors
	OracleSpikes int // injected lookup latency spikes
}

// Zero reports whether nothing was injected.
func (s Stats) Zero() bool { return s == Stats{} }

func (s Stats) String() string {
	return fmt.Sprintf(
		"crashes=%d dropped=%d skewed=%d bursted=%d panics=%d stalls=%d slow-trials=%d oracle-errors=%d oracle-spikes=%d",
		s.Crashes, s.Dropped, s.Skewed, s.Bursted, s.Panics, s.Stalls, s.SlowTrials, s.OracleErrors, s.OracleSpikes)
}

// Stats sums the counters of every registered hook. Nil-safe.
func (in *Injector) Stats() Stats {
	var s Stats
	if in == nil {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, h := range in.producers {
		s.Crashes += h.crashes
		s.Dropped += h.dropped
		s.Skewed += h.skewed
		s.Bursted += h.bursted
		s.Panics += h.panics
	}
	for _, h := range in.workers {
		s.Stalls += h.stalls
		s.SlowTrials += h.slow
	}
	for _, h := range in.oracles {
		s.OracleErrors += h.fails
		s.OracleSpikes += h.spikes
	}
	return s
}

// ProducerHook decides the fate of each submission of one producer.
// Single-writer: owned by that producer's goroutine.
type ProducerHook struct {
	plan  ProducerPlan
	id    int
	phase uint64

	n         uint64 // submissions seen
	crashLeft int    // remaining drops in the current crash span
	burstLeft int    // remaining collapses in the current burst
	burstT    float64

	crashes, dropped, skewed, bursted, panics int
}

// BeforeSubmit inspects the next submission's event time and returns
// the (possibly rewritten) time plus the verdict. Nil-safe pass-through.
func (h *ProducerHook) BeforeSubmit(t float64) (float64, Action) {
	if h == nil {
		return t, ActionSubmit
	}
	h.n++
	if h.plan.PanicAt > 0 && h.id == 0 && h.n == uint64(h.plan.PanicAt) {
		h.panics++
		return t, ActionPanic
	}
	if h.crashLeft > 0 {
		h.crashLeft--
		h.dropped++
		return t, ActionDrop
	}
	if h.plan.CrashEvery > 0 && (h.n+h.phase)%uint64(h.plan.CrashEvery) == 0 {
		span := h.plan.CrashSpan
		if span < 1 {
			span = 1
		}
		h.crashes++
		h.crashLeft = span - 1
		h.dropped++
		return t, ActionDrop
	}
	if h.plan.SkewSeconds != 0 && h.id%2 == 1 {
		t += h.plan.SkewSeconds
		h.skewed++
	}
	if h.burstLeft > 0 {
		h.burstLeft--
		h.bursted++
		// Collapse onto the anchor. The producer's own monotone clamp
		// makes this safe: the anchor was this producer's most recent
		// accepted time, so t >= burstT and rewriting to burstT keeps
		// the per-producer sequence nondecreasing.
		if t > h.burstT {
			t = h.burstT
		}
	} else if h.plan.BurstEvery > 0 && h.plan.BurstLen > 0 &&
		(h.n+h.phase)%uint64(h.plan.BurstEvery) == 0 {
		h.burstLeft = h.plan.BurstLen
		h.burstT = t
	}
	return t, ActionSubmit
}

// WorkerHook injects latency into one dispatch shard. Single-writer:
// a shard processes one task at a time.
type WorkerHook struct {
	plan  WorkerPlan
	phase uint64
	ring  *obs.Ring // injection overlay spans (nil = unspanned)

	fanouts, trials uint64
	stalls, slow    int
	emitted         int64 // spans emitted; the per-hook span instance key
}

// BeforeFanout stalls the shard on its scheduled fan-outs, identified by
// the request whose fan-out is stalled. Nil-safe.
func (h *WorkerHook) BeforeFanout(reqID int64, t float64) {
	if h == nil {
		return
	}
	h.fanouts++
	if h.plan.StallEvery > 0 && (h.fanouts+h.phase)%uint64(h.plan.StallEvery) == 0 {
		h.stalls++
		start := h.ring.SpanStart()
		time.Sleep(h.plan.Stall)
		h.ring.EmitSpan(obs.Span{
			// inst mixes the hook's phase so concurrent hooks hitting the
			// same request never collide on an ID; fault spans are leaves,
			// nothing parent-links to them.
			ID:     obs.SpanID(reqID, obs.StageFaultStall, h.emitted^int64(h.phase)),
			Parent: obs.RootSpanID(reqID),
			Req:    reqID, Stage: obs.StageFaultStall, T: t,
			Arg: h.plan.Stall.Nanoseconds(), Start: start,
		})
		h.emitted++
	}
}

// BeforeTrial slows the shard's scheduled trial insertions, identified
// by the request whose trial is slowed. Nil-safe.
func (h *WorkerHook) BeforeTrial(reqID int64, t float64) {
	if h == nil {
		return
	}
	h.trials++
	if h.plan.SlowEvery > 0 && (h.trials+h.phase)%uint64(h.plan.SlowEvery) == 0 {
		h.slow++
		start := h.ring.SpanStart()
		time.Sleep(h.plan.Slow)
		h.ring.EmitSpan(obs.Span{
			ID:     obs.SpanID(reqID, obs.StageFaultSlow, h.emitted^int64(h.phase)),
			Parent: obs.RootSpanID(reqID),
			Req:    reqID, Stage: obs.StageFaultSlow, T: t,
			Arg: h.plan.Slow.Nanoseconds(), Start: start,
		})
		h.emitted++
	}
}

// OracleHook injects failures and latency into one oracle facade.
// Single-writer: each dispatch shard owns its own facade, matching the
// sp thread-safety taxonomy.
type OracleHook struct {
	plan  OraclePlan
	phase uint64
	ring  *obs.Ring // injection overlay spans (nil = unspanned)

	dists, lookups uint64
	fails, spikes  int
	emitted        int64 // spans emitted; the per-hook span instance key
}

// FailDist reports whether the next distance lookup should fail with
// ErrInjected. Nil-safe: never fails.
func (h *OracleHook) FailDist() bool {
	if h == nil {
		return false
	}
	h.dists++
	if h.plan.ErrEvery > 0 &&
		int((h.dists+h.phase)%uint64(h.plan.ErrEvery)) < h.plan.ErrBurst {
		h.fails++
		return true
	}
	return false
}

// Spike sleeps on the scheduled lookups (dist and path share the
// counter). Nil-safe.
func (h *OracleHook) Spike() {
	if h == nil {
		return
	}
	h.lookups++
	if h.plan.SpikeEvery > 0 && (h.lookups+h.phase)%uint64(h.plan.SpikeEvery) == 0 {
		h.spikes++
		start := h.ring.SpanStart()
		time.Sleep(h.plan.Spike)
		// Fleet-level span (Req < 0): the oracle facade does not know
		// which request's lookup it slowed.
		h.ring.EmitSpan(obs.Span{
			ID:  obs.SpanID(-1, obs.StageOracleSpike, h.emitted^int64(h.phase)),
			Req: -1, Stage: obs.StageOracleSpike,
			Arg: h.plan.Spike.Nanoseconds(), Start: start,
		})
		h.emitted++
	}
}

// plans is the shipped scenario library. Window sizes are tuned for the
// test worlds (a few hundred requests, 4-ish producers/shards) so every
// plan actually fires there; larger runs just fire more often.
var plans = map[string]Plan{
	"producer-crash": {
		Name: "producer-crash", Seed: 1,
		Producer: ProducerPlan{CrashEvery: 25, CrashSpan: 4},
	},
	"clock-skew": {
		Name: "clock-skew", Seed: 2,
		Producer: ProducerPlan{SkewSeconds: 150},
	},
	"burst-storm": {
		Name: "burst-storm", Seed: 3,
		Producer: ProducerPlan{BurstEvery: 15, BurstLen: 6},
	},
	"worker-stall": {
		Name: "worker-stall", Seed: 4,
		Worker: WorkerPlan{StallEvery: 8, Stall: 2 * time.Millisecond},
	},
	"slow-oracle": {
		Name: "slow-oracle", Seed: 5,
		Oracle: OraclePlan{SpikeEvery: 128, Spike: 200 * time.Microsecond},
	},
	// flaky-oracle's burst (2) is under sp.Retry's default attempt
	// budget (4), so every lookup recovers and assignments stay
	// bit-identical to the fault-free run.
	"flaky-oracle": {
		Name: "flaky-oracle", Seed: 6,
		Oracle: OraclePlan{ErrEvery: 48, ErrBurst: 2},
	},
	// oracle-degraded's burst (8) exceeds the budget: lookups landing
	// early in a window exhaust retries and degrade to unreachable,
	// which the engine must absorb as failed trials, never as a blown
	// window reported served.
	"oracle-degraded": {
		Name: "oracle-degraded", Seed: 7,
		Oracle: OraclePlan{ErrEvery: 40, ErrBurst: 8},
	},
	"chaos": {
		Name: "chaos", Seed: 8,
		Producer: ProducerPlan{
			CrashEvery: 40, CrashSpan: 3,
			SkewSeconds: 60,
			BurstEvery:  20, BurstLen: 5,
		},
		Worker: WorkerPlan{
			StallEvery: 12, Stall: time.Millisecond,
			SlowEvery: 96, Slow: 50 * time.Microsecond,
		},
		Oracle: OraclePlan{
			ErrEvery: 64, ErrBurst: 2,
			SpikeEvery: 256, Spike: 100 * time.Microsecond,
		},
	},
}

// PlanNames lists the shipped plan names, sorted.
func PlanNames() []string {
	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n) //vetkit:allow determinism sort.Strings below makes the returned order deterministic
	}
	sort.Strings(names)
	return names
}

// ParsePlan resolves a shipped plan by name. "" and "none" mean no
// faults (zero Plan, Enabled() == false).
func ParsePlan(name string) (Plan, error) {
	switch name {
	case "", "none":
		return Plan{}, nil
	}
	if p, ok := plans[name]; ok {
		return p, nil
	}
	return Plan{}, fmt.Errorf("faults: unknown plan %q (have %s)",
		name, strings.Join(PlanNames(), ", "))
}
