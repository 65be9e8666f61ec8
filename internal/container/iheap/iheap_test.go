package iheap

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"lira/internal/rng"
)

func TestPushPopOrder(t *testing.T) {
	var h Heap
	h.Push(1, 3.0)
	h.Push(2, 5.0)
	h.Push(3, 1.0)
	h.Push(4, 4.0)
	want := []int{2, 4, 1, 3}
	for _, w := range want {
		id, _ := h.PopMax()
		if id != w {
			t.Fatalf("PopMax = %d, want %d", id, w)
		}
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d after draining", h.Len())
	}
}

func TestDuplicatePushPanics(t *testing.T) {
	var h Heap
	h.Push(1, 1.0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Push should panic")
		}
	}()
	h.Push(1, 2.0)
}

func TestPopEmptyPanics(t *testing.T) {
	var h Heap
	defer func() {
		if recover() == nil {
			t.Error("PopMax on empty heap should panic")
		}
	}()
	h.PopMax()
}

func TestUpdate(t *testing.T) {
	var h Heap
	h.Push(1, 1.0)
	h.Push(2, 2.0)
	h.Push(3, 3.0)
	if !h.Update(1, 10.0) {
		t.Fatal("Update reported id missing")
	}
	if id, p := h.PeekMax(); id != 1 || p != 10.0 {
		t.Errorf("PeekMax = (%d, %v), want (1, 10)", id, p)
	}
	if !h.Update(1, 0.5) {
		t.Fatal("Update reported id missing")
	}
	if id, _ := h.PeekMax(); id != 3 {
		t.Errorf("PeekMax = %d, want 3 after demotion", id)
	}
	if h.Update(99, 1.0) {
		t.Error("Update of absent id should return false")
	}
}

func TestRemove(t *testing.T) {
	var h Heap
	for i := 0; i < 10; i++ {
		h.Push(i, float64(i))
	}
	if !h.Remove(9) {
		t.Fatal("Remove reported id missing")
	}
	if h.Remove(9) {
		t.Error("double Remove should return false")
	}
	if id, _ := h.PopMax(); id != 8 {
		t.Errorf("PopMax after Remove = %d, want 8", id)
	}
	if h.Contains(9) {
		t.Error("Contains(9) after removal")
	}
	if !h.Contains(5) {
		t.Error("Contains(5) should hold")
	}
}

func TestPriorityLookup(t *testing.T) {
	var h Heap
	h.Push(7, 3.25)
	if p, ok := h.Priority(7); !ok || p != 3.25 {
		t.Errorf("Priority = (%v, %v)", p, ok)
	}
	if _, ok := h.Priority(8); ok {
		t.Error("Priority of absent id should report false")
	}
}

func TestInfinitePriority(t *testing.T) {
	var h Heap
	h.Push(1, 100)
	h.Push(2, math.Inf(1))
	h.Push(3, math.Inf(1))
	// Both infinities beat the finite; tie broken by insertion order.
	if id, _ := h.PopMax(); id != 2 {
		t.Errorf("first pop = %d, want 2", id)
	}
	if id, _ := h.PopMax(); id != 3 {
		t.Errorf("second pop = %d, want 3", id)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	var h Heap
	for i := 0; i < 5; i++ {
		h.Push(i, 1.0)
	}
	for i := 0; i < 5; i++ {
		id, _ := h.PopMax()
		if id != i {
			t.Fatalf("tie order: got %d at position %d", id, i)
		}
	}
}

// Property: popping everything yields priorities in non-increasing order,
// regardless of interleaved updates and removals.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed uint64, opsRaw []uint8) bool {
		r := rng.New(seed)
		var h Heap
		next := 0
		live := map[int]bool{}
		for _, op := range opsRaw {
			switch op % 4 {
			case 0, 1:
				h.Push(next, r.Float64()*100)
				live[next] = true
				next++
			case 2:
				if len(live) > 0 {
					for id := range live {
						h.Update(id, r.Float64()*100)
						break
					}
				}
			case 3:
				if len(live) > 0 {
					for id := range live {
						h.Remove(id)
						delete(live, id)
						break
					}
				}
			}
		}
		var drained []float64
		for h.Len() > 0 {
			_, p := h.PopMax()
			drained = append(drained, p)
		}
		if len(drained) != len(live) {
			return false
		}
		return sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i] > drained[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The id table is a dense slice: ids far apart, ids pushed again after
// leaving the heap, absent and out-of-range ids, and a Reset heap must all
// behave as they did on the map.
func TestSparseAndRepushedIDs(t *testing.T) {
	var h Heap
	h.Push(1000, 1)
	h.Push(3, 2)
	h.Push(70000, 3)
	if h.Contains(999) || h.Contains(70001) || h.Contains(-1) || h.Remove(-5) || h.Update(1<<40, 1) {
		t.Error("absent or out-of-range ids must report missing")
	}
	if id, _ := h.PopMax(); id != 70000 {
		t.Fatalf("PopMax = %d, want 70000", id)
	}
	h.Push(70000, 0.5) // re-push after pop
	if !h.Remove(3) {
		t.Fatal("Remove(3) reported missing")
	}
	h.Push(3, 9) // re-push after remove
	for _, want := range []int{3, 1000, 70000} {
		if id, _ := h.PopMax(); id != want {
			t.Fatalf("PopMax = %d, want %d", id, want)
		}
	}

	h.Push(5, 1)
	h.Push(6, 2)
	h.Reset(8)
	if h.Len() != 0 || h.Contains(5) || h.Contains(6) {
		t.Fatal("Reset left items behind")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for id := 0; id < 8; id++ {
			h.Push(id, 1) // equal priorities: insertion order restarts after Reset
		}
		for id := 0; id < 8; id++ {
			if got, _ := h.PopMax(); got != id {
				t.Fatalf("after Reset: PopMax = %d, want %d", got, id)
			}
		}
		h.Reset(8)
	}); allocs != 0 {
		t.Errorf("pushing ids below the Reset size allocated %.0f times", allocs)
	}
}
