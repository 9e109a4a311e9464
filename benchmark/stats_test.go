package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.01, 1}, {0.001, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

// The reported tail is the highest ladder percentile with at least ten
// samples beyond it.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1200, 0.99},   // 12 beyond p99, 1 beyond p99.9
		{1000, 0.99},   // exactly 10 beyond p99
		{999, 0.95},    // 9 beyond p99
		{10000, 0.999}, // 10 beyond p99.9
		{200, 0.95},    // 10 beyond p95
		{199, 0.90},
		{100, 0.90},
		{99, 0.75},
		{40, 0.75},
		{39, 0.5},
		{1, 0.5},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule itself, whatever the ladder: ten beyond, unless the median.
		if p := tailPercentile(c.n); p != 0.5 {
			xs := make([]float64, c.n)
			for i := range xs {
				xs[i] = float64(i)
			}
			if beyond := c.n - 1 - int(percentile(xs, p)); beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, 100*p)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
	if median(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must read 0")
	}
}

func TestAssignmentDigestStable(t *testing.T) {
	a := []int32{4, -1, 17, 4, 0}
	// Pinned: the digest is what a refactor quotes to show "same matching",
	// so its definition must not drift.
	const want = uint64(0x315d217cef5b0e2c)
	if got := assignmentDigest(a); got != want {
		t.Errorf("digest = %#x, want %#x", got, want)
	}
	if assignmentDigest(a) != assignmentDigest(append([]int32(nil), a...)) {
		t.Error("equal assignments, different digests")
	}
	for i := range a {
		b := append([]int32(nil), a...)
		b[i]++
		if assignmentDigest(b) == assignmentDigest(a) {
			t.Errorf("changing vehicle of request %d kept the digest", i)
		}
	}
	swapped := []int32{-1, 4, 17, 4, 0}
	if assignmentDigest(swapped) == assignmentDigest(a) {
		t.Error("digest ignores which request got which vehicle")
	}
	if assignmentDigest(a[:4]) == assignmentDigest(a) {
		t.Error("digest ignores length")
	}
}

func TestFastestTakesEachPositionFromItsQuickestPass(t *testing.T) {
	a := []time.Duration{5, 9, 3, 7}
	b := []time.Duration{6, 2, 3, 1}
	if got, want := fastest(a, b), []time.Duration{5, 2, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("fastest = %v, want %v", got, want)
	}
	if a[1] != 9 {
		t.Error("fastest wrote into its first pass")
	}
	if got := fastest(a); !reflect.DeepEqual(got, a) {
		t.Errorf("fastest of one pass = %v, want %v", got, a)
	}
	// A pass cut short (fewer paced requests fit the allowed seconds) bounds
	// the comparison.
	if got, want := fastest(a, b[:2]), []time.Duration{5, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("fastest over unequal passes = %v, want %v", got, want)
	}
	if got := sumDurations(fastest(a, b)); got != 11 {
		t.Errorf("sum = %v, want 11", got)
	}
}
