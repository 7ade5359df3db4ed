package core

import (
	"math"

	"dvbp/internal/item"
)

// The engine reads its item list in place: every item lives only in
// list.Items. On top of the list it keeps the arrival order as a permutation
// of list indices, span(R) and μ folded in that order, and an ID index that
// is built only when something looks an item up by ID.

// item returns the item with the given ID. The ID index is built from the
// list on first use. Only crash eviction, migration and RestoreEngine's
// checks look items up by ID, so a fault-free run never builds it.
func (e *Engine) item(id int) (item.Item, bool) {
	if e.byID == nil {
		e.byID = make(map[int]int32, len(e.list.Items))
		for i, it := range e.list.Items {
			e.byID[it.ID] = int32(i)
		}
	}
	i, ok := e.byID[id]
	if !ok {
		return item.Item{}, false
	}
	return e.list.Items[i], true
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
