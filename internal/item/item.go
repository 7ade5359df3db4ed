package item

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"dvbp/internal/interval"
	"dvbp/internal/vector"
)

// Item is one job/request. Items are compared and deduplicated by ID;
// SeqNo orders simultaneous arrivals (the paper's constructions rely on
// items "arriving in that order" at the same time instant).
type Item struct {
	// ID identifies the item within its list. IDs are unique, lie in
	// [0, MaxID], and are stable across serialisation. The bound lets the
	// engine pack an ID into the high half of a 64-bit event key.
	ID int
	// SeqNo breaks ties among items with equal arrival time: lower SeqNo
	// arrives first. List.Normalize assigns SeqNos from list order.
	SeqNo int
	// Arrival is a(r), the time the item arrives and must be packed.
	Arrival float64
	// Departure is e(r), the time the item departs. Hidden from
	// non-clairvoyant policies.
	Departure float64
	// Size is s(r) ∈ [0,1]^d.
	Size vector.Vector
}

// Interval returns the active interval I(r) = [a(r), e(r)).
func (it Item) Interval() interval.Interval {
	return interval.New(it.Arrival, it.Departure)
}

// Duration returns ℓ(I(r)) = e(r) - a(r).
func (it Item) Duration() float64 { return it.Departure - it.Arrival }

// ActiveAt reports whether the item is active at time t (t ∈ [a, e)).
func (it Item) ActiveAt(t float64) bool { return t >= it.Arrival && t < it.Departure }

// MaxID is the largest item ID a valid item may carry, 2³¹−1.
const MaxID = math.MaxInt32

// Validate checks the item is well-formed for a d-dimensional instance: an ID
// in [0, MaxID], non-negative times, strictly positive duration, size in
// [0,1]^d with the right dimension.
func (it Item) Validate(d int) error {
	switch {
	case it.ID < 0 || it.ID > MaxID:
		return fmt.Errorf("item %d: ID outside [0, %d]", it.ID, MaxID)
	case math.IsNaN(it.Arrival) || math.IsNaN(it.Departure):
		return fmt.Errorf("item %d: NaN time", it.ID)
	case it.Arrival < 0:
		return fmt.Errorf("item %d: negative arrival %g", it.ID, it.Arrival)
	case it.Departure <= it.Arrival:
		return fmt.Errorf("item %d: departure %g not after arrival %g", it.ID, it.Departure, it.Arrival)
	case it.Size.Dim() != d:
		return fmt.Errorf("item %d: dimension %d, want %d", it.ID, it.Size.Dim(), d)
	case !it.Size.NonNegative():
		return fmt.Errorf("item %d: negative or NaN size %v", it.ID, it.Size)
	case !it.Size.LeqCapacity():
		return fmt.Errorf("item %d: size %v exceeds unit capacity", it.ID, it.Size)
	}
	return nil
}

// String renders a compact single-line description.
func (it Item) String() string {
	return fmt.Sprintf("item{id=%d, [%g,%g), s=%v}", it.ID, it.Arrival, it.Departure, it.Size)
}

// List is an ordered collection of items. Order matters: simultaneous
// arrivals are processed in list order (via SeqNo after Normalize).
type List struct {
	Dim   int
	Items []Item
}

// NewList returns an empty list for d-dimensional items.
func NewList(d int) *List { return &List{Dim: d} }

// Add appends an item, assigning the next ID and SeqNo, and returns its ID.
func (l *List) Add(arrival, departure float64, size vector.Vector) int {
	id := len(l.Items)
	l.Items = append(l.Items, Item{
		ID:        id,
		SeqNo:     id,
		Arrival:   arrival,
		Departure: departure,
		Size:      size,
	})
	return id
}

// Len returns the number of items.
func (l *List) Len() int { return len(l.Items) }

// Normalize assigns SeqNos from current list order and re-checks IDs are
// unique, returning an error otherwise. Call after bulk-loading items.
func (l *List) Normalize() error {
	seen := make(map[int]bool, len(l.Items))
	for i := range l.Items {
		it := &l.Items[i]
		if seen[it.ID] {
			return fmt.Errorf("item list: duplicate id %d", it.ID)
		}
		seen[it.ID] = true
		it.SeqNo = i
	}
	return nil
}

// Validate checks every item (see Item.Validate) and the list as a whole.
func (l *List) Validate() error {
	if len(l.Items) == 0 {
		return errors.New("item list: empty")
	}
	return l.ValidateDynamic()
}

// ValidateDynamic is Validate for lists that grow while a run is in progress
// (the engine's dynamic-arrival mode): the same per-item and uniqueness
// checks, but an empty list is legal — a dynamic run begins before its first
// item exists.
func (l *List) ValidateDynamic() error {
	if l.Dim <= 0 {
		return errors.New("item list: dimension must be positive")
	}
	seen := make(map[int]bool, len(l.Items))
	for _, it := range l.Items {
		if err := it.Validate(l.Dim); err != nil {
			return err
		}
		if seen[it.ID] {
			return fmt.Errorf("item list: duplicate id %d", it.ID)
		}
		seen[it.ID] = true
	}
	return nil
}

// MinDuration returns the shortest item duration (0 for an empty list).
func (l *List) MinDuration() float64 {
	if len(l.Items) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, it := range l.Items {
		if d := it.Duration(); d < m {
			m = d
		}
	}
	return m
}

// MaxDuration returns the longest item duration (0 for an empty list).
func (l *List) MaxDuration() float64 {
	m := 0.0
	for _, it := range l.Items {
		if d := it.Duration(); d > m {
			m = d
		}
	}
	return m
}

// Mu returns μ = max duration / min duration, the parameter that all the
// competitive-ratio bounds in the paper are stated in. For an empty list it
// returns 0.
func (l *List) Mu() float64 {
	minD := l.MinDuration()
	if minD == 0 {
		return 0
	}
	return l.MaxDuration() / minD
}

// Span returns span(R): the measure of the union of all active intervals.
func (l *List) Span() float64 {
	ivs := make(interval.Set, len(l.Items))
	for i, it := range l.Items {
		ivs[i] = it.Interval()
	}
	return ivs.Span()
}

// Hull returns the smallest interval [min a(r), max e(r)) covering all
// activity.
func (l *List) Hull() interval.Interval {
	ivs := make(interval.Set, len(l.Items))
	for i, it := range l.Items {
		ivs[i] = it.Interval()
	}
	return ivs.Hull()
}

// TotalSize returns s(R) = Σ_r s(r).
func (l *List) TotalSize() vector.Vector {
	s := vector.New(l.Dim)
	for _, it := range l.Items {
		s.AddInPlace(it.Size)
	}
	return s
}

// ActiveAt returns the items active at time t, in SeqNo order.
func (l *List) ActiveAt(t float64) []Item {
	var out []Item
	for _, it := range l.Items {
		if it.ActiveAt(t) {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SeqNo < out[j].SeqNo })
	return out
}

// LoadAt returns s(R, t) = Σ_{r active at t} s(r) (Section 2.3).
func (l *List) LoadAt(t float64) vector.Vector {
	s := vector.New(l.Dim)
	for _, it := range l.Items {
		if it.ActiveAt(t) {
			s.AddInPlace(it.Size)
		}
	}
	return s
}

// SortedByArrival returns the items sorted by (Arrival, SeqNo): the exact
// order in which an online algorithm sees them. The receiver is unchanged.
func (l *List) SortedByArrival() []Item {
	out := make([]Item, len(l.Items))
	for k, i := range l.ArrivalOrder() {
		out[k] = l.Items[i]
	}
	return out
}

// ArrivalOrder returns the indices of l.Items sorted by (Arrival, SeqNo),
// the order SortedByArrival returns the items in, without copying them. An
// int32 holds every index of a valid list, whose IDs are distinct and at most
// MaxID.
func (l *List) ArrivalOrder() []int32 {
	items := l.Items
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := &items[a], &items[b]
		if x.Arrival != y.Arrival {
			if x.Arrival < y.Arrival {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.SeqNo, y.SeqNo)
	})
	return order
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	c := &List{Dim: l.Dim, Items: make([]Item, len(l.Items))}
	for i, it := range l.Items {
		it.Size = it.Size.Clone()
		c.Items[i] = it
	}
	return c
}

// TimeSpaceUtilization returns Σ_r ‖s(r)‖∞ · ℓ(I(r)), the numerator of the
// Lemma 1(ii) lower bound.
func (l *List) TimeSpaceUtilization() float64 {
	u := 0.0
	for _, it := range l.Items {
		u += it.Size.MaxNorm() * it.Duration()
	}
	return u
}
