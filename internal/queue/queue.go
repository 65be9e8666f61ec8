// Package queue implements the server's bounded position-update input
// queue. It is the component whose overflow behavior motivates LIRA:
// when updates arrive faster than they are served the queue overflows —
// here by shedding its oldest entries to admit the freshest — and the
// measured utilization ρ = λ/μ drives THROTLOOP.
package queue

// Bounded is a bounded FIFO queue of update identifiers with drop
// accounting and arrival/service rate measurement. It models the paper's
// M/M/1-style input queue with maximum size B.
//
// Bounded is not safe for concurrent use; the simulator is single-threaded
// per run and the server owns its queue.
type Bounded[T any] struct {
	buf        []T
	head, tail int
	size       int

	arrived int64 // total offered
	dropped int64 // total shed because the queue was full
	served  int64 // total dequeued

	// Windowed counters for rate estimation, reset by Rates.
	winArrived int64
	winServed  int64
	winBusy    float64 // fraction of window the server spent busy
}

// NewBounded returns a queue with capacity b (the paper's B). It panics if
// b <= 0.
func NewBounded[T any](b int) *Bounded[T] {
	if b <= 0 {
		panic("queue: non-positive capacity")
	}
	return &Bounded[T]{buf: make([]T, b)}
}

// Cap returns the maximum queue size B.
func (q *Bounded[T]) Cap() int { return len(q.buf) }

// Len returns the current queue length.
func (q *Bounded[T]) Len() int { return q.size }

// Occupancy returns Len/Cap in [0, 1] — the queue-pressure signal the
// admission controller's degradation ladder samples each control tick.
func (q *Bounded[T]) Occupancy() float64 {
	if len(q.buf) == 0 {
		return 0
	}
	return float64(q.size) / float64(len(q.buf))
}

// OfferShedOldest enqueues item unconditionally: when the queue is full
// the oldest entry is shed — counted as a drop, not as served work — to
// make room for the freshest. This is the network layer's overflow
// policy: under saturation a stale position report is strictly less
// useful than the report that supersedes it, so the head of the queue is
// the right victim. The returned flag reports whether an entry was shed.
func (q *Bounded[T]) OfferShedOldest(item T) (shed bool) {
	q.arrived++
	q.winArrived++
	if q.size == len(q.buf) {
		if q.head++; q.head == len(q.buf) {
			q.head = 0
		}
		q.size--
		q.dropped++
		shed = true
	}
	q.buf[q.tail] = item
	if q.tail++; q.tail == len(q.buf) {
		q.tail = 0
	}
	q.size++
	return shed
}

// ReserveShedOldestBulk makes room for n arrivals under the shed-oldest
// policy and returns up to two writable views — in arrival order — over
// the min(n, Cap()) slots the survivors occupy. The caller must
// immediately fill them with the LAST min(n, Cap()) of its n items; when
// n exceeds capacity the leading overflow counts as shed here. It is
// behaviorally identical to calling OfferShedOldest once per item — each
// item counts one arrival, the ring ends holding the freshest Cap()
// entries, and every displaced entry counts one drop — but the loop is
// replaced by O(1) accounting and one write per survivor: a columnar
// producer scatters each record directly into its ring slot.
func (q *Bounded[T]) ReserveShedOldestBulk(n int) (a, b []T, shed int) {
	if n == 0 {
		return nil, nil, 0
	}
	q.arrived += int64(n)
	q.winArrived += int64(n)
	capacity := len(q.buf)
	if n >= capacity {
		shed = q.size + n - capacity
		q.head, q.tail, q.size = 0, 0, capacity
		q.dropped += int64(shed)
		return q.buf, nil, shed
	}
	if over := q.size + n - capacity; over > 0 {
		if q.head += over; q.head >= capacity {
			q.head -= capacity
		}
		q.size -= over
		q.dropped += int64(over)
		shed = over
	}
	first := capacity - q.tail
	if first >= n {
		a = q.buf[q.tail : q.tail+n]
		if q.tail += n; q.tail == capacity {
			q.tail = 0
		}
	} else {
		a = q.buf[q.tail:]
		b = q.buf[:n-first]
		q.tail = n - first
	}
	q.size += n
	return a, b, shed
}

// Poll dequeues the oldest item. The second result is false when the queue
// is empty.
func (q *Bounded[T]) Poll() (T, bool) {
	if q.size == 0 {
		var zero T
		return zero, false
	}
	item := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	q.served++
	q.winServed++
	return item, true
}

// ServeSegments dequeues up to limit items (negative: all) and returns
// them as up to two contiguous views into the ring's backing array,
// oldest first. This is the vectored Poll used by the drain hot path:
// counters advance once per call instead of once per item. The views
// alias the ring's storage and are valid only until the next offer —
// callers must consume them before enqueuing again.
func (q *Bounded[T]) ServeSegments(limit int) (a, b []T) {
	n := q.size
	if limit >= 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return nil, nil
	}
	first := len(q.buf) - q.head
	if first > n {
		first = n
	}
	a = q.buf[q.head : q.head+first]
	if rest := n - first; rest > 0 {
		b = q.buf[:rest]
	}
	if q.head += n; q.head >= len(q.buf) {
		q.head -= len(q.buf)
	}
	q.size -= n
	q.served += int64(n)
	q.winServed += int64(n)
	return a, b
}

// Arrived returns the total number of updates offered to the queue.
func (q *Bounded[T]) Arrived() int64 { return q.arrived }

// Dropped returns the total number of updates shed because the queue was
// full.
func (q *Bounded[T]) Dropped() int64 { return q.dropped }

// Served returns the total number of updates dequeued.
func (q *Bounded[T]) Served() int64 { return q.served }

// ObserveBusy accumulates the fraction of the current window during which
// the server was busy processing updates; Utilization divides through by
// the window length.
func (q *Bounded[T]) ObserveBusy(busy float64) { q.winBusy += busy }

// Rates returns the arrival rate λ and service rate μ measured over the
// window of the given duration (in seconds) and resets the window. μ is
// estimated as served work divided by busy time; when the server was never
// busy, μ is reported as +Inf via a zero-λ convention: the caller treats a
// window with no arrivals as underload.
func (q *Bounded[T]) Rates(window float64) (lambda, mu float64) {
	if window <= 0 {
		return 0, 0
	}
	lambda = float64(q.winArrived) / window
	if q.winBusy > 0 {
		mu = float64(q.winServed) / q.winBusy
	}
	q.winArrived, q.winServed, q.winBusy = 0, 0, 0
	return lambda, mu
}

// Utilization returns ρ = λ/μ for the supplied rates, the quantity
// THROTLOOP compares against 1 − 1/B. A zero μ (idle window) yields ρ = 0.
func Utilization(lambda, mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	return lambda / mu
}
