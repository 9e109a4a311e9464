package sim

// Report is a scheduled vehicle position report ("around 17,000 taxis
// update their locations every 20 to 60 seconds", §IV): vehicle Veh owes a
// location refresh at simulated time Due.
type Report struct {
	Due float64
	Veh int
}

// ReportHeap is a hand-rolled binary min-heap of Reports ordered by
// (Due, Veh). Hand-rolled rather than container/heap because
// container/heap's Push(any)/Pop() any interface boxes every Report on
// every operation, and at city scale the report drain is the
// single largest allocation site on the hot path (~79% of all objects in
// the dispatch throughput profile). A value-typed heap allocates only when
// the backing array grows, and ReplaceMin lets the drain loop reschedule
// the due vehicle with one sift-down instead of a pop plus push.
//
// Ties on Due are broken by Veh so the pop order is canonical — vehicle
// position refreshes commute (each touches only its own vehicle and index
// entry), but a deterministic order keeps traces and debugging stable
// across runs and shard counts.
type ReportHeap []Report

// Len returns the number of pending reports.
func (q ReportHeap) Len() int { return len(q) }

// Min returns the earliest-due report without removing it. It must not be
// called on an empty heap.
func (q ReportHeap) Min() Report { return q[0] }

func (q ReportHeap) less(i, j int) bool {
	if q[i].Due != q[j].Due {
		return q[i].Due < q[j].Due
	}
	return q[i].Veh < q[j].Veh
}

// Push adds a report to the heap.
func (q *ReportHeap) Push(r Report) {
	*q = append(*q, r)
	q.siftUp(len(*q) - 1)
}

// Pop removes and returns the earliest-due report. It must not be called
// on an empty heap.
func (q *ReportHeap) Pop() Report {
	h := *q
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = Report{}
	*q = h[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return min
}

// ReplaceMin overwrites the earliest-due report with r and restores heap
// order with a single sift-down — the allocation- and copy-free form of
// Pop followed by Push that the report drain loops use to reschedule a
// vehicle's next report.
func (q *ReportHeap) ReplaceMin(r Report) {
	(*q)[0] = r
	q.siftDown(0)
}

func (q ReportHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q ReportHeap) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
