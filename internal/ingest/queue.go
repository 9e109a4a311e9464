package ingest

import "sync"

// queue is one bounded admission queue: multi-producer (any producer whose
// requests key to this shard), single-consumer (the drainer). A mutexed
// ring buffer — producers contend only with producers mapped to the same
// shard and with the drainer's sweep, which is the point of keying queues
// by dispatch.ShardIndex instead of funnelling every producer through one
// lock.
type queue struct {
	mu      sync.Mutex
	notFull sync.Cond
	buf     []stamped
	head    int // index of the oldest element
	n       int // occupied count

	peak    int   // deepest the queue ever got
	evicted []int // evictions by victim's producer index
	rr      int32 // rotating tie-break cursor for fair eviction
}

func newQueue(depth int) *queue {
	if depth < 1 {
		// A zero-capacity queue can admit nothing and would deadlock the
		// eviction loop; one slot is the smallest queue that can make
		// progress.
		depth = 1
	}
	q := &queue{buf: make([]stamped, depth)}
	q.notFull.L = &q.mu
	return q
}

// push enqueues s. When the ring is full: with evict it sheds one queued
// entry (fair victim selection, see evictLocked) to make room; otherwise
// it blocks until the drainer frees space. It returns the evicted entry
// so the caller can account and trace the shed.
func (q *queue) push(s stamped, evict bool) (evicted bool, victim stamped) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == len(q.buf) {
		if evict {
			victim = q.evictLocked(s.prod)
			evicted = true
			break
		}
		q.notFull.Wait()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = s
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
	return evicted, victim
}

// evictLocked removes and returns one entry to make room, fairly across
// producers: the victim is the oldest entry of whichever producer holds
// the most slots in this queue, so a flooding producer evicts its own
// backlog before it can touch a polite producer's. Ties prefer the
// incoming producer (self-eviction keeps the single-producer behavior
// identical to plain shed-oldest), then rotate through the remaining
// tied producers so repeated ties don't always pick the same one.
// Requires q.mu held and q.n > 0.
func (q *queue) evictLocked(incoming int32) stamped {
	// Occupancy census. Producer ids are small registration indices, so
	// a grow-on-demand slice is the whole data structure; the scan is
	// O(depth) under a lock already paid for by the push.
	maxID := incoming
	for k := 0; k < q.n; k++ {
		if p := q.buf[(q.head+k)%len(q.buf)].prod; p > maxID {
			maxID = p
		}
	}
	counts := make([]int, maxID+1)
	if len(q.evicted) < int(maxID+1) {
		q.evicted = append(q.evicted, make([]int, int(maxID+1)-len(q.evicted))...)
	}
	maxN := 0
	for k := 0; k < q.n; k++ {
		p := q.buf[(q.head+k)%len(q.buf)].prod
		counts[p]++
		if counts[p] > maxN {
			maxN = counts[p]
		}
	}
	victim := int32(-1)
	if int(incoming) < len(counts) && counts[incoming] == maxN {
		victim = incoming
	} else {
		nProd := int32(len(counts))
		for off := int32(0); off < nProd; off++ {
			p := (q.rr + off) % nProd
			if counts[p] == maxN {
				victim = p
				q.rr = (p + 1) % nProd
				break
			}
		}
	}
	for k := 0; k < q.n; k++ {
		idx := (q.head + k) % len(q.buf)
		if q.buf[idx].prod != victim {
			continue
		}
		out := q.buf[idx]
		// Shift the entries older than the victim forward one slot and
		// advance head past them, preserving FIFO order of the rest.
		for j := k; j > 0; j-- {
			cur := (q.head + j) % len(q.buf)
			prev := (q.head + j - 1) % len(q.buf)
			q.buf[cur] = q.buf[prev]
		}
		q.buf[q.head] = stamped{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.evicted[victim]++
		return out
	}
	// Unreachable: maxN > 0 guarantees the victim has an entry.
	panic("ingest: fair eviction found no victim entry")
}

// drainInto moves every queued entry into the drainer's heap and frees any
// blocked producers.
func (q *queue) drainInto(h *stampHeap) {
	q.mu.Lock()
	for ; q.n > 0; q.n-- {
		h.push(q.buf[q.head])
		q.buf[q.head] = stamped{}
		q.head = (q.head + 1) % len(q.buf)
	}
	q.mu.Unlock()
	q.notFull.Broadcast()
}

// len reports the current depth.
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// peakDepth reports the deepest the queue ever got.
func (q *queue) peakDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak
}

// evictions reports the per-producer eviction counts (victim's index).
func (q *queue) evictions() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]int(nil), q.evicted...)
}
