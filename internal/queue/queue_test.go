package queue

import (
	"math"
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	q := NewBounded[int64](4)
	for i := int64(1); i <= 4; i++ {
		if q.OfferShedOldest(i) {
			t.Fatalf("OfferShedOldest(%d) shed below capacity", i)
		}
	}
	for i := int64(1); i <= 4; i++ {
		id, ok := q.Poll()
		if !ok || id != i {
			t.Fatalf("Poll = (%d, %v), want %d", id, ok, i)
		}
	}
	if _, ok := q.Poll(); ok {
		t.Error("Poll on empty queue should report false")
	}
}

func TestOfferShedOldest(t *testing.T) {
	q := NewBounded[int64](3)
	for i := int64(1); i <= 3; i++ {
		if q.OfferShedOldest(i) {
			t.Fatalf("OfferShedOldest(%d) shed below capacity", i)
		}
	}
	// Saturated: each further offer evicts the head, keeping the freshest.
	if !q.OfferShedOldest(4) || !q.OfferShedOldest(5) {
		t.Fatal("OfferShedOldest at capacity must shed")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	for want := int64(3); want <= 5; want++ {
		got, ok := q.Poll()
		if !ok || got != want {
			t.Fatalf("Poll = (%d, %v), want %d (oldest-first shedding)", got, ok, want)
		}
	}
	// Sheds are drops (they feed the overload signal), not served work.
	if q.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", q.Dropped())
	}
	if q.Served() != 3 {
		t.Errorf("Served = %d, want 3", q.Served())
	}
	if q.Arrived() != 5 {
		t.Errorf("Arrived = %d, want 5", q.Arrived())
	}
	// Polling freed the slots: the next offer sheds nothing.
	if q.OfferShedOldest(6) || q.Dropped() != 2 {
		t.Errorf("offer after Poll shed (Dropped = %d, want 2)", q.Dropped())
	}
}

func TestWrapAround(t *testing.T) {
	q := NewBounded[int64](3)
	for round := 0; round < 10; round++ {
		for i := int64(0); i < 3; i++ {
			if q.OfferShedOldest(int64(round)*3 + i) {
				t.Fatal("shed below capacity")
			}
		}
		for i := int64(0); i < 3; i++ {
			id, ok := q.Poll()
			if !ok || id != int64(round)*3+i {
				t.Fatalf("round %d: Poll = (%d, %v)", round, id, ok)
			}
		}
	}
	if q.Served() != 30 {
		t.Errorf("Served = %d, want 30", q.Served())
	}
}

func TestNewBoundedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBounded[int64](0) should panic")
		}
	}()
	NewBounded[int64](0)
}

func TestRates(t *testing.T) {
	q := NewBounded[int64](100)
	for i := int64(0); i < 50; i++ {
		q.OfferShedOldest(i)
	}
	for i := 0; i < 30; i++ {
		q.Poll()
	}
	q.ObserveBusy(5) // server busy 5 s out of the 10 s window
	lambda, mu := q.Rates(10)
	if lambda != 5 {
		t.Errorf("lambda = %v, want 5", lambda)
	}
	if mu != 6 {
		t.Errorf("mu = %v, want 6 (30 served / 5 busy seconds)", mu)
	}
	// Window counters reset.
	lambda, mu = q.Rates(10)
	if lambda != 0 || mu != 0 {
		t.Errorf("after reset: lambda=%v mu=%v", lambda, mu)
	}
}

func TestUtilization(t *testing.T) {
	if rho := Utilization(5, 10); rho != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", rho)
	}
	if rho := Utilization(5, 0); rho != 0 {
		t.Errorf("Utilization with idle server = %v, want 0", rho)
	}
	if rho := Utilization(15, 10); math.Abs(rho-1.5) > 1e-12 {
		t.Errorf("overload Utilization = %v, want 1.5", rho)
	}
}

func TestRatesZeroWindow(t *testing.T) {
	q := NewBounded[int64](1)
	lambda, mu := q.Rates(0)
	if lambda != 0 || mu != 0 {
		t.Errorf("zero window: lambda=%v mu=%v", lambda, mu)
	}
}

// TestBulkMatchesPerItem drives a bulk queue and a per-item reference
// through the same randomized schedule of offers and drains and demands
// identical observable behavior: dequeued sequences, shed counts, and
// every counter. This is the contract that lets the vectored ingest path
// substitute ReserveShedOldestBulk/ServeSegments for the per-item calls.
func TestBulkMatchesPerItem(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 64} {
		// Deterministic xorshift so failures reproduce.
		seed := uint64(0x9e3779b97f4a7c15)
		next := func(n int) int {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			return int(seed % uint64(n))
		}
		bulk := NewBounded[int64](capacity)
		ref := NewBounded[int64](capacity)
		id := int64(0)
		for step := 0; step < 500; step++ {
			if next(3) < 2 { // offer a batch, possibly larger than capacity
				n := next(2*capacity + 3)
				items := make([]int64, n)
				for i := range items {
					id++
					items[i] = id
				}
				// Reserve slots, fill by hand with the trailing survivors.
				a, b, shedBulk := bulk.ReserveShedOldestBulk(n)
				rest := items[n-len(a)-len(b):]
				copy(a, rest)
				copy(b, rest[len(a):])
				shedRef := 0
				for _, it := range items {
					if ref.OfferShedOldest(it) {
						shedRef++
					}
				}
				if shedBulk != shedRef {
					t.Fatalf("cap=%d step=%d: bulk shed %d, per-item shed %d", capacity, step, shedBulk, shedRef)
				}
			} else { // drain a prefix
				limit := next(capacity+2) - 1 // occasionally -1: drain all
				a, b := bulk.ServeSegments(limit)
				for _, seg := range [2][]int64{a, b} {
					for _, got := range seg {
						want, ok := ref.Poll()
						if !ok || got != want {
							t.Fatalf("cap=%d step=%d: segment item %d, reference (%d, %v)", capacity, step, got, want, ok)
						}
					}
				}
				if extra := len(a) + len(b); limit >= 0 && extra > limit {
					t.Fatalf("cap=%d step=%d: ServeSegments(%d) returned %d items", capacity, step, limit, extra)
				}
			}
			if bulk.Len() != ref.Len() || bulk.Arrived() != ref.Arrived() ||
				bulk.Dropped() != ref.Dropped() || bulk.Served() != ref.Served() {
				t.Fatalf("cap=%d step=%d: counters diverged: bulk len=%d arr=%d drop=%d srv=%d, ref len=%d arr=%d drop=%d srv=%d",
					capacity, step, bulk.Len(), bulk.Arrived(), bulk.Dropped(), bulk.Served(),
					ref.Len(), ref.Arrived(), ref.Dropped(), ref.Served())
			}
		}
		// Drain both to the bottom and confirm the tails agree too.
		a, b := bulk.ServeSegments(-1)
		for _, seg := range [2][]int64{a, b} {
			for _, got := range seg {
				want, ok := ref.Poll()
				if !ok || got != want {
					t.Fatalf("cap=%d final drain: got %d, reference (%d, %v)", capacity, got, want, ok)
				}
			}
		}
		if _, ok := ref.Poll(); ok {
			t.Fatalf("cap=%d: reference still has items after full bulk drain", capacity)
		}
	}
}

// TestOccupancy pins the admission controller's queue-pressure signal:
// Len/Cap across fill, overflow (capped at 1), and drain.
func TestOccupancy(t *testing.T) {
	q := NewBounded[int](4)
	if got := q.Occupancy(); got != 0 {
		t.Errorf("empty occupancy = %v, want 0", got)
	}
	q.OfferShedOldest(1)
	if got := q.Occupancy(); got != 0.25 {
		t.Errorf("1/4 occupancy = %v, want 0.25", got)
	}
	for i := 0; i < 10; i++ {
		q.OfferShedOldest(i)
	}
	if got := q.Occupancy(); got != 1 {
		t.Errorf("overflowed occupancy = %v, want 1 (never above)", got)
	}
	q.Poll()
	q.Poll()
	if got := q.Occupancy(); got != 0.5 {
		t.Errorf("half-drained occupancy = %v, want 0.5", got)
	}
}
