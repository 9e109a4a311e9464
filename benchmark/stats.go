package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (p in (0, 1]) of sorted,
// which must be ascending: the ceil(p*n)-th smallest sample. 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder is the set of tail percentiles a timing may be reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it, so a reported tail never rests on a
// handful of outliers: 1,200 samples give p99 (12 beyond), 400 give p95.
// Below 40 samples only the median is left.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond := n - int(math.Ceil(p*float64(n))); beyond >= 10 {
			return p
		}
	}
	return 0.5
}

// sortedCopy returns xs ascending without touching the caller's order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns, position by position, the smallest reading over several
// passes that measured the same deterministic work (blocks of a closed phase,
// requests of a paced phase). A neighbour on the shared host can only add to
// a reading, never take from it, so the smallest is the least disturbed one.
// Passes of different lengths compare over the shortest.
func fastest(passes ...[]time.Duration) []time.Duration {
	if len(passes) == 0 {
		return nil
	}
	out := append([]time.Duration(nil), passes[0]...)
	for _, p := range passes[1:] {
		if len(p) < len(out) {
			out = out[:len(p)]
		}
		for i := range out {
			if p[i] < out[i] {
				out[i] = p[i]
			}
		}
	}
	return out
}

func sumDurations(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// assignmentDigest folds the (request index, vehicle) pairs of a phase into
// one FNV-1a value. The engine is bit-deterministic, so two builds that
// match the same way print the same digest for a seed.
func assignmentDigest(vehicles []int32) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for i, v := range vehicles {
		binary.LittleEndian.PutUint64(buf[:8], uint64(i))
		binary.LittleEndian.PutUint32(buf[8:], uint32(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ratio is a/b, or 0 when b is 0 (counts that did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
