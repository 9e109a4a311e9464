package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// checkInvariants validates every stripe's internal consistency: the
// recency list and the index describe the same entries, within the bound.
func (t *table) checkInvariants() error {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		err := s.checkInvariants()
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("stripe %d: %w", i, err)
		}
	}
	return nil
}

func (s *stripe) checkInvariants() error {
	count := 0
	prev := -1
	for at := s.head; at != -1; at = s.entries[at].next {
		if s.entries[at].prev != prev {
			return fmt.Errorf("cache: bad prev link at slot %d", at)
		}
		if got, ok := s.index[s.entries[at].key]; !ok || got != at {
			return fmt.Errorf("cache: index mismatch for key %d", s.entries[at].key)
		}
		prev = at
		count++
		if count > len(s.index) {
			return fmt.Errorf("cache: list longer than index (cycle?)")
		}
	}
	if prev != s.tail {
		return fmt.Errorf("cache: tail mismatch: walked to %d, tail is %d", prev, s.tail)
	}
	if count != len(s.index) {
		return fmt.Errorf("cache: list has %d entries, index has %d", count, len(s.index))
	}
	if len(s.index) > s.capacity {
		return fmt.Errorf("cache: size %d exceeds capacity %d", len(s.index), s.capacity)
	}
	if len(s.entries) > s.capacity {
		return fmt.Errorf("cache: %d slots allocated for capacity %d", len(s.entries), s.capacity)
	}
	return nil
}

// size returns the number of stored entries across all stripes.
func (t *table) size() int {
	total := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		total += len(s.index)
		s.mu.Unlock()
	}
	return total
}

// bound is the table's total capacity: the requested one rounded up to a
// multiple of the stripe count.
func (t *table) bound() int { return len(t.stripes) * t.stripes[0].capacity }

// The TestLRU* tests pin the eviction policy on a one-stripe table, where
// per-stripe LRU is plain LRU.

func TestLRUBasic(t *testing.T) {
	c := newTable(2, 1)
	if _, ok := c.get(1, true); ok {
		t.Fatal("hit on empty table")
	}
	c.put(1, 100)
	c.put(2, 200)
	if v, ok := c.get(1, true); !ok || v != 100 {
		t.Fatalf("get(1)=%v,%v", v, ok)
	}
	c.put(3, 300) // evicts 2 (1 was just used)
	if _, ok := c.get(2, true); ok {
		t.Fatal("2 should have been evicted")
	}
	if v, ok := c.get(1, true); !ok || v != 100 {
		t.Fatalf("1 evicted wrongly: %v,%v", v, ok)
	}
	if v, ok := c.get(3, true); !ok || v != 300 {
		t.Fatalf("3 missing: %v,%v", v, ok)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newTable(2, 1)
	c.put(1, 1.5)
	c.put(1, 2.5)
	if c.size() != 1 {
		t.Fatalf("size=%d", c.size())
	}
	if v, _ := c.get(1, true); v != 2.5 {
		t.Fatalf("value %v", v)
	}
}

func TestLRUCapacityClamp(t *testing.T) {
	c := newTable(0, 1)
	if c.bound() != 1 {
		t.Fatalf("bound=%d, want clamp to 1", c.bound())
	}
	c.put(1, 1)
	c.put(2, 2)
	if c.size() != 1 {
		t.Fatalf("size=%d", c.size())
	}
	if _, ok := c.get(2, true); !ok {
		t.Fatal("the newer entry must be the one kept")
	}
}

func TestLRUStats(t *testing.T) {
	c := newTable(4, 1)
	c.put(1, 1)
	c.get(1, true)
	c.get(2, true)
	c.get(3, true)
	if h, m := c.stats(); h != 1 || m != 2 {
		t.Fatalf("stats %d/%d, want 1/2", h, m)
	}
}

// TestLRUNeverExceedsCapacity is a property test: random workloads keep the
// size bounded and the internal list consistent.
func TestLRUNeverExceedsCapacity(t *testing.T) {
	f := func(keys []uint8, capSeed uint8) bool {
		capacity := int(capSeed%31) + 1
		c := newTable(capacity, 1)
		for _, k := range keys {
			if k%3 == 0 {
				c.get(uint64(k), true)
			} else {
				c.put(uint64(k), float64(k))
			}
			if c.size() > capacity {
				return false
			}
			if err := c.checkInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUMatchesReference checks the eviction order against a simple
// reference implementation on random traces.
func TestLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const capacity = 8
	c := newTable(capacity, 1)
	type refEntry struct {
		key uint64
		val float64
	}
	var ref []refEntry // front = most recent
	refGet := func(k uint64) (float64, bool) {
		for i, e := range ref {
			if e.key == k {
				ref = append(ref[:i], ref[i+1:]...)
				ref = append([]refEntry{e}, ref...)
				return e.val, true
			}
		}
		return 0, false
	}
	refPut := func(k uint64, v float64) {
		if _, ok := refGet(k); ok {
			ref[0].val = v
			return
		}
		if len(ref) == capacity {
			ref = ref[:capacity-1]
		}
		ref = append([]refEntry{{k, v}}, ref...)
	}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(20))
		if rng.Intn(2) == 0 {
			v := rng.Float64()
			c.put(k, v)
			refPut(k, v)
		} else {
			got, gok := c.get(k, true)
			want, wok := refGet(k)
			if gok != wok || (gok && got != want) {
				t.Fatalf("step %d: get(%d) = %v,%v want %v,%v", i, k, got, gok, want, wok)
			}
		}
	}
}

func TestStripedLRUBasic(t *testing.T) {
	c := newTable(64, 4)
	if len(c.stripes) != 4 {
		t.Fatalf("stripes=%d, want 4", len(c.stripes))
	}
	if c.bound() != 64 {
		t.Fatalf("bound=%d, want 64", c.bound())
	}
	if _, ok := c.get(1, true); ok {
		t.Fatal("empty table returned a value")
	}
	c.put(1, 100)
	c.put(2, 200)
	if v, ok := c.get(1, true); !ok || v != 100 {
		t.Fatalf("get(1) = (%v, %v), want (100, true)", v, ok)
	}
	c.put(1, 101) // update
	if v, _ := c.get(1, true); v != 101 {
		t.Fatalf("updated value = %v, want 101", v)
	}
	if c.size() != 2 {
		t.Fatalf("size=%d, want 2", c.size())
	}
	if hits, misses := c.stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats = (%d, %d), want (2, 1)", hits, misses)
	}
}

func TestStripedLRUStripeRounding(t *testing.T) {
	// Stripe count rounds up to a power of two; 0 selects the default.
	if got := len(newTable(10, 5).stripes); got != 8 {
		t.Fatalf("stripes(5) rounded to %d, want 8", got)
	}
	if got := len(newTable(10, 0).stripes); got != tableStripes {
		t.Fatalf("stripes(0) = %d, want %d", got, tableStripes)
	}
	// Tiny capacity still gives every stripe at least one slot.
	c := newTable(1, 8)
	if c.bound() < len(c.stripes) {
		t.Fatalf("bound=%d smaller than stripe count %d", c.bound(), len(c.stripes))
	}
}

func TestStripedLRUEviction(t *testing.T) {
	c := newTable(16, 4)
	for k := uint64(0); k < 10_000; k++ {
		c.put(k, float64(k))
	}
	if c.size() > c.bound() {
		t.Fatalf("size=%d exceeds bound=%d after churn", c.size(), c.bound())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedLRUConcurrent is the -race stress test: goroutines hammer
// overlapping key ranges with get/put while others poll stats/size, then the
// counters must account for every single get losslessly.
func TestStripedLRUConcurrent(t *testing.T) {
	const (
		goroutines = 8
		opsEach    = 5_000
		keyspace   = 1 << 10
	)
	c := newTable(256, 8)
	var gets atomic.Uint64
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	// Readers of the aggregate views race against the mutators.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.stats()
				c.size()
			}
		}()
	}

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			state := seed*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsEach; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				k := (state >> 16) % keyspace
				if state&1 == 0 {
					c.put(k, float64(k*2))
					continue
				}
				if v, ok := c.get(k, true); ok && v != float64(k*2) {
					t.Errorf("get(%d) returned %v, want %d", k, v, k*2)
				}
				gets.Add(1)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	hits, misses := c.stats()
	if hits+misses != gets.Load() {
		t.Fatalf("lossy counters: hits+misses = %d, issued %d gets", hits+misses, gets.Load())
	}
	if c.size() > c.bound() {
		t.Fatalf("size=%d exceeds bound=%d", c.size(), c.bound())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLRUPutGet(b *testing.B) {
	c := newTable(1<<16, 1)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(1 << 18))
		if _, ok := c.get(k, true); !ok {
			c.put(k, float64(k))
		}
	}
}
