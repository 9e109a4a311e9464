package main

import (
	"sync"
	"time"

	"repro/internal/roadnet"
	"repro/internal/sp"
)

// oracleTimer hands out timing facades for the shard oracles of the traced
// pass and sums them afterwards. Each facade is driven by one goroutine at a
// time, like the oracle it wraps; only registration takes the lock.
type oracleTimer struct {
	mu     sync.Mutex
	shards []*timedOracle
}

func (t *oracleTimer) wrap(inner sp.Oracle) sp.Oracle {
	o := &timedOracle{inner: inner}
	t.mu.Lock()
	t.shards = append(t.shards, o)
	t.mu.Unlock()
	return o
}

// oracleTotals is the traced pass's oracle work, summed over shards.
type oracleTotals struct {
	distCalls, pathCalls int64
	distNs, pathNs       int64
}

func (a oracleTotals) minus(b oracleTotals) oracleTotals {
	return oracleTotals{
		distCalls: a.distCalls - b.distCalls, pathCalls: a.pathCalls - b.pathCalls,
		distNs: a.distNs - b.distNs, pathNs: a.pathNs - b.pathNs,
	}
}

// totals must be called while the engine is quiescent.
func (t *oracleTimer) totals() oracleTotals {
	var out oracleTotals
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.shards {
		out.distCalls += o.distCalls
		out.pathCalls += o.pathCalls
		out.distNs += o.distNs
		out.pathNs += o.pathNs
	}
	return out
}

// timedOracle times every call into the oracle stack from outside it. It
// implements sp.Unwrapper so the engine still finds the cache stack
// underneath and reports its hit/miss counters.
type timedOracle struct {
	inner                sp.Oracle
	distCalls, pathCalls int64
	distNs, pathNs       int64
}

func (o *timedOracle) Dist(u, v roadnet.VertexID) float64 {
	start := time.Now()
	d := o.inner.Dist(u, v)
	o.distNs += int64(time.Since(start))
	o.distCalls++
	return d
}

func (o *timedOracle) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	start := time.Now()
	p := o.inner.Path(u, v)
	o.pathNs += int64(time.Since(start))
	o.pathCalls++
	return p
}

func (o *timedOracle) Unwrap() sp.Oracle { return o.inner }
