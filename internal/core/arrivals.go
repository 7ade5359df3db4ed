package core

import (
	"fmt"
	"math"
)

// The engine reads its item list in place: every item lives only in
// list.Items. On top of the list it keeps the arrival order as a permutation
// of list indices, span(R) and μ folded in that order, the slot table, the
// outcome table (Engine.outcomes), and an ID index that is built only when
// something looks a static run's item up by ID.

// itemSlot is one item's entry in a run's slot table (Engine.slots): the
// arena slot (Engine.bins) of the bin holding the item, 0 for none; the
// item's position in that bin's items; and its placement attempt, its
// eviction count, which a live departure entry's depSeq carries. The zero
// entry is an item in no bin at attempt 0.
type itemSlot struct{ bin, pos, attempt int32 }

// pack puts item i (a list index) into b at the given placement attempt,
// checking that it fits and is in no bin already.
func (e *Engine) pack(b *Bin, i int32, attempt int) error {
	it := &e.list.Items[i]
	if !b.Fits(it.Size) {
		return fmt.Errorf("bin %d: item %d of size %v does not fit load %v", b.ID, it.ID, it.Size, b.load)
	}
	if e.slots[i].bin != 0 {
		return fmt.Errorf("bin %d: item %d already packed", b.ID, it.ID)
	}
	e.place(b, i, int32(attempt))
	b.packed++
	return nil
}

// place records item i in b, its slot and b's load, unchecked.
func (e *Engine) place(b *Bin, i int32, attempt int32) {
	e.slots[i] = itemSlot{bin: b.slot, pos: int32(len(b.items)), attempt: attempt}
	b.items = append(b.items, i)
	b.add(e.list.Items[i].Size)
}

// unpack takes item i out of the bin its slot names, which must be one,
// moving that bin's last item into its position.
func (e *Engine) unpack(i int32) {
	s := &e.slots[i]
	b := e.bins[s.bin]
	last := b.items[len(b.items)-1]
	b.items[s.pos] = last
	e.slots[last].pos = s.pos
	b.items = b.items[:len(b.items)-1]
	s.bin = 0
	b.sub(e.list.Items[i].Size)
}

// index returns the list index of the item with the given ID. A dynamic
// run numbers its items by list index; a static run's ID index is built
// from the list on first use. Only migration and RestoreEngine look items
// up by ID, so a run without them never builds it.
func (e *Engine) index(id int) (int32, bool) {
	if e.cfg.dynamic {
		return int32(id), id >= 0 && id < len(e.list.Items)
	}
	if e.byID == nil {
		e.byID = make(map[int]int32, len(e.list.Items))
		for i, it := range e.list.Items {
			e.byID[it.ID] = int32(i)
		}
	}
	i, ok := e.byID[id]
	return i, ok
}

// shape folds span(R) and μ over items taken in non-decreasing arrival
// order, with no interval set and no sort. It extends the current merged
// interval when an arrival is at or before its end, which is
// interval.Set.Merge's rule. With arrivals in order, the fold therefore
// closes the same merged intervals as item.List.Span, in the same order, and
// sums their lengths in the same order, so the two agree bit for bit. The
// minimum and maximum durations are exact in any order, so μ = max/min
// matches item.List.Mu.
type shape struct {
	n          int
	closed     float64 // summed lengths of the merged intervals already closed
	lo, hi     float64 // the merged interval still open to extension
	minD, maxD float64
}

func (s *shape) add(arrival, departure float64) {
	switch {
	case s.n == 0:
		s.lo, s.hi, s.minD = arrival, departure, math.Inf(1)
	case arrival <= s.hi:
		if departure > s.hi {
			s.hi = departure
		}
	default:
		s.closed += s.hi - s.lo
		s.lo, s.hi = arrival, departure
	}
	s.n++
	d := departure - arrival
	if d < s.minD {
		s.minD = d
	}
	if d > s.maxD {
		s.maxD = d
	}
}

// span returns span(R) of the items folded so far (0 for none).
func (s *shape) span() float64 {
	if s.n == 0 {
		return 0
	}
	return s.closed + (s.hi - s.lo)
}

// mu returns max duration / min duration of the items folded so far (0 for
// none).
func (s *shape) mu() float64 {
	if s.n == 0 {
		return 0
	}
	return s.maxD / s.minD
}
