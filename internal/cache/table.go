// Package cache provides the caching layer the paper places in front of the
// shortest-path engine (§VI): an LRU "storing up to ten million shortest
// distances ... indexed only by the starting and destination points ... by
// defining the index for two vertices s and e as i = id(s)·|V| + id(e)".
// The paper's second LRU, ten thousand shortest paths, is not reproduced:
// every vehicle already memoises the leg it is driving (sim.Vehicle's
// path/pathPos), and a path cache above that hit 0.1–1.6 % of the time.
package cache

import "sync"

// tableStripes is the stripe count NewShared uses when its caller passes
// 0. 32 stripes keep lock contention negligible for worker pools far larger
// than any host this runs on, at the cost of 32 small mutexes.
const tableStripes = 32

// table is a concurrency-safe, bounded map from uint64 keys to distances,
// assembled from independently locked stripes: a key is hashed to one
// stripe, and that stripe's mutex guards a private LRU together with its
// hit/miss counters. Two lookups contend only when their keys land on the
// same stripe.
//
// Recency and eviction are per stripe, not global: each stripe evicts its
// own least-recently-used entry when it reaches its share of the bound.
// With a hash that spreads keys uniformly the behaviour converges to a
// global LRU as the bound grows, which is the regime the paper's
// ten-million-entry distance cache lives in.
//
// The bound is a limit, not an allocation: a stripe's map and slot slice
// start empty and grow with what is stored.
type table struct {
	stripes []stripe
	mask    uint64
}

// stripe is one lock and the LRU it guards: a hash map over entries in an
// intrusive doubly-linked recency list. It is padded to two full 64-byte
// cache lines (80 bytes of fields + 48) so stripes on adjacent indices
// don't false-share.
type stripe struct {
	mu       sync.Mutex
	capacity int
	index    map[uint64]int // key -> slot
	entries  []entry        // slot-addressed; head/tail form the recency list
	head     int            // most recently used, -1 when empty
	tail     int            // least recently used, -1 when empty
	hits     uint64
	misses   uint64
	_        [48]byte
}

type entry struct {
	key        uint64
	dist       float64
	prev, next int
}

// newTable returns a table bounded at capacity entries spread over the
// given number of stripes. The stripe count is rounded up to a power of
// two (0 selects tableStripes); a capacity below the stripe count is raised
// so every stripe holds at least one entry.
func newTable(capacity, stripes int) *table {
	if stripes <= 0 {
		stripes = tableStripes
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	if capacity < 1 {
		capacity = 1
	}
	t := &table{stripes: make([]stripe, n), mask: uint64(n - 1)}
	for i := range t.stripes {
		s := &t.stripes[i]
		s.capacity = (capacity + n - 1) / n
		s.index = make(map[uint64]int)
		s.head, s.tail = -1, -1
	}
	return t
}

// mix is the splitmix64 finalizer. The keys id(s)·|V| + id(e) are highly
// structured (nearby vertices share high bits), so stripe selection needs a
// real bit mixer or neighbouring queries would pile onto a handful of
// stripes.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// get returns the distance stored under key and marks it most recently
// used within its stripe. countMiss=false makes a failed lookup leave no
// trace (a probe the caller may settle without ever computing the value);
// a found key always counts as a hit.
func (t *table) get(key uint64, countMiss bool) (float64, bool) {
	s := &t.stripes[mix(key)&t.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.index[key]
	if !ok {
		if countMiss {
			s.misses++
		}
		return 0, false
	}
	s.hits++
	if s.head != slot {
		s.unlink(slot)
		s.pushFront(slot)
	}
	return s.entries[slot].dist, true
}

// put stores dist under key, reusing the slot of the stripe's least
// recently used entry if that stripe is at its bound. Storing an existing
// key updates its value and recency.
func (t *table) put(key uint64, dist float64) {
	s := &t.stripes[mix(key)&t.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.index[key]
	switch {
	case ok:
		s.unlink(slot)
	case len(s.index) >= s.capacity:
		slot = s.tail
		s.unlink(slot)
		delete(s.index, s.entries[slot].key)
	default:
		slot = len(s.entries)
		s.entries = append(s.entries, entry{})
	}
	s.entries[slot] = entry{key: key, dist: dist}
	s.index[key] = slot
	s.pushFront(slot)
}

func (s *stripe) pushFront(slot int) {
	s.entries[slot].prev = -1
	s.entries[slot].next = s.head
	if s.head >= 0 {
		s.entries[s.head].prev = slot
	}
	s.head = slot
	if s.tail < 0 {
		s.tail = slot
	}
}

func (s *stripe) unlink(slot int) {
	e := &s.entries[slot]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// stats returns the cumulative hit and miss counts of get, aggregated over
// all stripes. Each stripe's counters are incremented and read under its
// mutex, so no increment is ever lost; concurrent callers see a sum of
// per-stripe snapshots taken in stripe order.
func (t *table) stats() (hits, misses uint64) {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}
