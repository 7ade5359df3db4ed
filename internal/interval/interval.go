package interval

import (
	"fmt"
	"slices"
)

// Interval is a half-open interval [Lo, Hi). Empty intervals (Hi <= Lo) have
// zero length and behave as the empty set.
type Interval struct {
	Lo, Hi float64
}

// New returns the interval [lo, hi).
func New(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi} }

// Length returns Hi - Lo, or 0 for empty intervals.
func (iv Interval) Length() float64 {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Contains reports whether t ∈ [Lo, Hi).
func (iv Interval) Contains(t float64) bool { return t >= iv.Lo && t < iv.Hi }

// Hull returns the smallest interval containing both iv and other. Empty
// operands are ignored; the hull of two empty intervals is empty.
func (iv Interval) Hull(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	lo := iv.Lo
	if other.Lo < lo {
		lo = other.Lo
	}
	hi := iv.Hi
	if other.Hi > hi {
		hi = other.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// String renders the interval as "[lo, hi)".
func (iv Interval) String() string { return fmt.Sprintf("[%g, %g)", iv.Lo, iv.Hi) }

// Set is a collection of intervals. It need not be normalised; Merge and the
// measure operations normalise on the fly.
type Set []Interval

// Span returns the measure of the union of the intervals in s — the paper's
// span(R) when s holds the active intervals of the items of R. It is not the
// hull length: gaps between intervals do not count.
func (s Set) Span() float64 {
	merged := s.Merge()
	total := 0.0
	for _, iv := range merged {
		total += iv.Length()
	}
	return total
}

// Hull returns the smallest single interval covering every non-empty interval
// in s (empty if s has no non-empty member).
func (s Set) Hull() Interval {
	var h Interval
	for _, iv := range s {
		h = h.Hull(iv)
	}
	return h
}

// Merge returns the normalised form of s: non-empty, pairwise disjoint,
// non-abutting intervals in increasing order whose union equals the union of
// s. The receiver is not modified.
func (s Set) Merge() Set {
	in := make(Set, 0, len(s))
	for _, iv := range s {
		if !iv.Empty() {
			in = append(in, iv)
		}
	}
	if len(in) == 0 {
		return Set{}
	}
	slices.SortFunc(in, func(a, b Interval) int {
		if a.Lo != b.Lo {
			if a.Lo < b.Lo {
				return -1
			}
			return 1
		}
		switch {
		case a.Hi < b.Hi:
			return -1
		case a.Hi > b.Hi:
			return 1
		}
		return 0
	})
	out := Set{in[0]}
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi { // overlap or abut: extend
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// Covers reports whether the union of s covers the whole interval target.
func (s Set) Covers(target Interval) bool {
	if target.Empty() {
		return true
	}
	for _, iv := range s.Merge() {
		if iv.Lo <= target.Lo && target.Hi <= iv.Hi {
			return true
		}
	}
	return false
}

// Contains reports whether t lies in the union of s.
func (s Set) Contains(t float64) bool {
	for _, iv := range s {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}
