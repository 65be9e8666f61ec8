// Package iheap implements an indexed binary max-heap keyed by float64
// priorities. Unlike container/heap it tracks each item's position so a
// priority can be updated or an item removed in O(log n) without a scan,
// which is what GREEDYINCREMENT (update gains, the minimum throttler and
// blocked-list re-admission) and the GRIDREDUCE drill-down both need.
package iheap

// Heap is an indexed max-heap of items identified by a caller-chosen
// non-negative integer id. Priorities compare as float64; +Inf is a valid
// priority and sorts above everything else (used for query-free shedding
// regions whose update gain is unbounded).
//
// The id → position table is a dense slice as long as the largest id
// pushed so far, so ids should be small integers (both users push
// 0..n−1). The zero value is an empty heap ready to use; Reset empties a
// heap for reuse without giving up its storage.
type Heap struct {
	items []item // heap order: items[0] has the max priority
	pos   []int  // id -> index in items plus one; 0 when absent
	next  int64
}

type item struct {
	pri float64
	tie int64 // insertion number: lower wins among equal priorities
	id  int
}

// Len returns the number of items in the heap.
func (h *Heap) Len() int { return len(h.items) }

// Reset empties the heap, keeping its storage for the next use, and makes
// room for ids 0..n−1 so that pushing them allocates nothing.
func (h *Heap) Reset(n int) {
	for _, it := range h.items {
		h.pos[it.id] = 0
	}
	h.items = h.items[:0]
	h.next = 0
	if cap(h.items) < n {
		h.items = make([]item, 0, n)
	}
	h.growTable(n)
}

// growTable extends the id table to cover ids 0..n−1.
func (h *Heap) growTable(n int) {
	if len(h.pos) < n {
		h.pos = append(h.pos, make([]int, n-len(h.pos))...)
	}
}

// Push inserts id with the given priority. Pushing an id that is already
// present panics; use Update instead.
func (h *Heap) Push(id int, priority float64) {
	h.growTable(id + 1)
	if h.pos[id] != 0 {
		panic("iheap: duplicate id")
	}
	h.items = append(h.items, item{pri: priority, tie: h.next, id: id})
	h.next++
	h.pos[id] = len(h.items)
	h.up(len(h.items) - 1)
}

// PopMax removes and returns the id with the highest priority. Ties break
// by insertion order (earlier wins) so results are deterministic.
func (h *Heap) PopMax() (id int, priority float64) {
	if len(h.items) == 0 {
		panic("iheap: PopMax on empty heap")
	}
	id, priority = h.items[0].id, h.items[0].pri
	h.removeAt(0)
	return id, priority
}

// PeekMax returns the id and priority at the top of the heap without
// removing it.
func (h *Heap) PeekMax() (id int, priority float64) {
	if len(h.items) == 0 {
		panic("iheap: PeekMax on empty heap")
	}
	return h.items[0].id, h.items[0].pri
}

// index returns id's position in items, or -1 when it is absent.
func (h *Heap) index(id int) int {
	if id < 0 || id >= len(h.pos) {
		return -1
	}
	return h.pos[id] - 1
}

// Update changes the priority of id, restoring heap order. It reports
// whether the id was present.
func (h *Heap) Update(id int, priority float64) bool {
	i := h.index(id)
	if i < 0 {
		return false
	}
	old := h.items[i].pri
	h.items[i].pri = priority
	if priority > old {
		h.up(i)
	} else if priority < old {
		h.down(i)
	}
	return true
}

// Remove deletes id from the heap. It reports whether the id was present.
func (h *Heap) Remove(id int) bool {
	i := h.index(id)
	if i < 0 {
		return false
	}
	h.removeAt(i)
	return true
}

// Contains reports whether id is in the heap.
func (h *Heap) Contains(id int) bool { return h.index(id) >= 0 }

// Priority returns the current priority of id and whether it is present.
func (h *Heap) Priority(id int) (float64, bool) {
	i := h.index(id)
	if i < 0 {
		return 0, false
	}
	return h.items[i].pri, true
}

func (h *Heap) removeAt(i int) {
	last := len(h.items) - 1
	if i != last {
		h.swap(i, last)
	}
	h.pos[h.items[last].id] = 0
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// less reports whether item i should sort above item j in the max-heap.
func (h *Heap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	return a.tie < b.tie
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].id] = i + 1
	h.pos[h.items[j].id] = j + 1
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}
