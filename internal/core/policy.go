package core

import (
	"slices"

	"dvbp/internal/vector"
)

// Request is the information an online, non-clairvoyant algorithm sees when
// an item arrives (Section 2.1: "when an item arrives the algorithm does not
// have any knowledge of when it will depart").
//
// Departure is populated only when the engine runs with WithClairvoyance —
// the clairvoyant DVBP variant the paper lists as future work. Policies that
// need it must check HasDeparture and fail fast otherwise.
type Request struct {
	ID      int
	SeqNo   int
	Arrival float64
	Size    vector.Vector

	Departure    float64
	HasDeparture bool

	// Attempt is 0 on the item's first dispatch and k when the item is
	// being re-dispatched after its k-th eviction (fault injection only).
	// Arrival is the current dispatch time, not the original arrival.
	Attempt int
}

// Policy chooses among open bins. Implementations hold any per-run state they
// need (Move To Front's recency list, Next Fit's current bin) and must be
// reset between runs via Reset.
//
// The engine guarantees:
//   - open is the list of currently open bins in opening order (ascending ID);
//   - Select is called once per arriving item;
//   - OnPack is called after every successful placement, with opened=true when
//     the engine had to open a fresh bin (policy returned nil);
//   - OnClose is called when a bin's last item departs, before any subsequent
//     Select.
//
// Policies must return either nil or a bin from open that Fits the request's
// size. Returning an unfit bin is a policy bug; the engine reports it as an
// error rather than packing infeasibly.
type Policy interface {
	// Name returns a stable identifier, e.g. "FirstFit".
	Name() string
	// Reset clears all per-run state. Engines call it before a run, so a
	// single Policy value can be reused across simulations.
	Reset()
	// Select returns the open bin to pack the request into, or nil to open a
	// new bin. Select must not mutate the bins.
	Select(req Request, open []*Bin) *Bin
	// OnPack observes a completed placement.
	OnPack(req Request, b *Bin, opened bool)
	// OnClose observes a bin closing (all items departed).
	OnClose(b *Bin)
}

// The two loops below, first and fitScan.fitting, test every bin that the
// scanning Selects (First/Last Fit, Best/Worst Fit, Random Fit, the scored
// family) examine, and together with DotProduct's dotProduct2 (fragfit.go)
// are the only code specialised by dimension: d = 2 is unrolled, every
// other d goes through vector.FitsWithin. The unrolled test is FitsWithin's
// exactly (load[j] + size[j] > 1+Eps rejects, on the same float64 values),
// and every bin examined counts as one fit check, as a Bin.Fits call does.

// first returns the index of the first bin in open, stepping k by step (±1)
// until end, that an item of the given size fits, or end when none does: the
// scan of the Selects that stop at the first fitting bin.
func first(open []*Bin, k, end, step int, size vector.Vector) int {
	if k == end {
		return k
	}
	start := k
	if len(size) == 2 && len(open[k].load) == 2 {
		const limit = 1 + vector.Eps
		s0, s1 := size[0], size[1]
		for ; k != end; k += step {
			l := open[k].load
			_ = l[1]
			if !(l[0]+s0 > limit || l[1]+s1 > limit) {
				break
			}
		}
	} else {
		for ; k != end && !open[k].load.FitsWithin(size); k += step {
		}
	}
	n := (k - start) * step
	if k != end {
		n++ // the fitting bin
	}
	countFits(open, n)
	return k
}

// fitScan is the scratch of a Select that weighs every bin an item fits. A
// policy holds its own, so the scan allocates nothing once the open set has
// stopped reaching new highs.
type fitScan struct{ hits []int }

// fitting returns the indices of the bins in open that an item of the given
// size fits, ascending, in scratch that the next call overwrites: the scan
// of the Selects that weigh every fitting bin. Indices are collected without
// branching on the fit test, so a fleet where fitting and full bins
// interleave costs no mispredictions.
func (s *fitScan) fitting(open []*Bin, size vector.Vector) []int {
	if len(open) == 0 {
		return nil
	}
	if cap(s.hits) < len(open) {
		s.hits = slices.Grow(s.hits[:0], len(open))
	}
	hits := s.hits[:len(open)]
	m := 0
	if len(size) == 2 && len(open[0].load) == 2 {
		const limit = 1 + vector.Eps
		s0, s1 := size[0], size[1]
		for i, b := range open {
			l := b.load
			_ = l[1]
			hits[m] = i
			// Two conditional moves: a || would compile to branches.
			next := m + 1
			if l[0]+s0 > limit {
				next = m
			}
			if l[1]+s1 > limit {
				next = m
			}
			m = next
		}
	} else {
		for i, b := range open {
			hits[m] = i
			if b.load.FitsWithin(size) {
				m++
			}
		}
	}
	countFits(open, len(open))
	return hits[:m]
}

// countFits adds n fit checks to the probe that the engine shares among all
// of a run's bins, when it is armed (Bin.Fits's rule). open is not empty.
func countFits(open []*Bin, n int) {
	if p := open[0].probe; p != nil && p.armed {
		p.n += n
	}
}
