package sp

import (
	"time"

	"repro/internal/roadnet"
)

// Fallible is an oracle whose lookups can fail transiently — a remote
// distance service, a backend shard mid-failover, or a fault-injection
// wrapper (faults.FlakyOracle). Retry adapts a Fallible back into the
// infallible Oracle interface the schedulers consume.
type Fallible interface {
	// TryDist is Dist with an error channel: (d, nil) on success,
	// (anything, err) on a transient failure worth retrying.
	TryDist(u, v roadnet.VertexID) (float64, error)
	// TryPath is Path with an error channel.
	TryPath(u, v roadnet.VertexID) ([]roadnet.VertexID, error)
}

// Unwrapper is implemented by oracle wrappers (Retry, faults.FlakyOracle,
// and any future facade) that decorate another oracle. Consumers that
// need the concrete oracle underneath — dispatch's cache-stats dedup
// walks wrappers to find the cache.SharedWorker inside — peel
// with Unwrap until it stops returning.
type Unwrapper interface {
	Unwrap() Oracle
}

// Unwrap peels every Unwrapper layer off o and returns the innermost
// oracle. Returns o itself when it wraps nothing.
func Unwrap(o Oracle) Oracle {
	for {
		u, ok := o.(Unwrapper)
		if !ok {
			return o
		}
		inner := u.Unwrap()
		if inner == nil {
			return o
		}
		o = inner
	}
}

// RetryOptions bounds Retry's persistence.
type RetryOptions struct {
	// MaxAttempts is the total number of tries per lookup (first try
	// included). Default 4.
	MaxAttempts int
	// BaseBackoff is the sleep after the first failure; it doubles per
	// subsequent failure, capped at MaxBackoff. Default 100µs (these
	// are in-process oracles, not network calls — the backoff exists
	// to let a stalled backend shard drain, not to be polite to a
	// remote API).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 5ms.
	MaxBackoff time.Duration
	// Seed drives the deterministic jitter stream (splitmix64 counter,
	// never math/rand): each backoff is scaled into [50%, 150%] so
	// retries from many shards don't resynchronize against a
	// periodically failing backend.
	Seed uint64
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Microsecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Millisecond
	}
	return o
}

// Retry adapts a Fallible into an Oracle with bounded retries,
// exponential backoff, and deterministic jitter. When the attempt
// budget is exhausted it degrades instead of blocking the scheduler:
// Dist reports +Inf (unreachable) and Path reports nil — the documented
// "can't serve this pair" sentinels, which the kinetic-tree trial path
// already treats as an infeasible candidate. A degraded lookup can
// therefore lose a match but can never corrupt a schedule or report a
// blown service-guarantee window as served.
//
// Thread-safety: per-goroutine (it mutates the jitter counter and its
// inner Fallible is typically a per-goroutine facade). Build one per
// shard, like any other per-goroutine engine.
type Retry struct {
	inner Fallible
	opt   RetryOptions

	jit       uint64 // deterministic jitter counter
	retries   int    // backoff sleeps taken (attempts beyond the first)
	exhausted int    // lookups degraded after the full budget failed
}

// NewRetry wraps inner with the given options (zero fields defaulted).
func NewRetry(inner Fallible, opt RetryOptions) *Retry {
	return &Retry{inner: inner, opt: opt.withDefaults()}
}

// Unwrap exposes the wrapped oracle when the Fallible is itself a
// wrapper around one (the common case: faults.FlakyOracle over a cache
// facade). Returns nil when the Fallible is not an oracle wrapper,
// which sp.Unwrap treats as "innermost reached".
func (r *Retry) Unwrap() Oracle {
	if u, ok := r.inner.(Unwrapper); ok {
		return u.Unwrap()
	}
	if o, ok := r.inner.(Oracle); ok {
		return o
	}
	return nil
}

// RetryStats reports the facade's lifetime counters. Read at quiescence.
func (r *Retry) RetryStats() (retries, exhausted int) { return r.retries, r.exhausted }

// backoff sleeps for attempt i (1-based failure count) with ±50% jitter.
func (r *Retry) backoff(failure int) {
	d := r.opt.BaseBackoff << (failure - 1)
	if d > r.opt.MaxBackoff || d <= 0 {
		d = r.opt.MaxBackoff
	}
	r.jit++
	// splitmix64 finalizer, same as the cache stripe hash.
	x := r.opt.Seed + r.jit*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	// Scale into [0.5, 1.5): d/2 + frac*d with frac in [0,1).
	frac := float64(x>>11) / (1 << 53)
	d = d/2 + time.Duration(frac*float64(d))
	time.Sleep(d)
}

// Dist retries TryDist up to the budget, then degrades to +Inf.
func (r *Retry) Dist(u, v roadnet.VertexID) float64 {
	for attempt := 1; ; attempt++ {
		d, err := r.inner.TryDist(u, v)
		if err == nil {
			return d
		}
		if attempt >= r.opt.MaxAttempts {
			r.exhausted++
			return Inf
		}
		r.retries++
		r.backoff(attempt)
	}
}

// Path retries TryPath up to the budget, then degrades to nil.
func (r *Retry) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	for attempt := 1; ; attempt++ {
		p, err := r.inner.TryPath(u, v)
		if err == nil {
			return p
		}
		if attempt >= r.opt.MaxAttempts {
			r.exhausted++
			return nil
		}
		r.retries++
		r.backoff(attempt)
	}
}
