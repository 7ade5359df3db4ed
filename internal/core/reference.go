package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dvbp/internal/item"
)

// SimulateReference is a deliberately naive, from-scratch implementation of
// Algorithm 1 used as a differential-testing oracle for Simulate. At every
// arrival it recomputes the set of open bins and their loads directly from
// the ground-truth item intervals — no incremental state, no event queue —
// at O(n²) cost. Policies are driven through the same Policy interface with
// the same callback ordering, so for every deterministic policy the two
// engines must produce identical Results.
//
// It intentionally shares no bookkeeping code with Simulate; keep it that
// way, or the oracle stops being independent.
func SimulateReference(l *item.List, p Policy) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input: %w", err)
	}
	p.Reset()

	arrivals := l.SortedByArrival()
	indexOf := make(map[int]int32, l.Len())
	for k, it := range l.Items {
		indexOf[it.ID] = int32(k)
	}

	type refBin struct {
		bin      *Bin    // the policy-facing view (items and load kept in sync)
		items    []int32 // list indices of every item ever packed
		closedAt float64 // +Inf while open
		closed   bool
	}
	var bins []*refBin
	res := &Result{Algorithm: p.Name(), Dim: l.Dim, Items: l.Len(), Span: l.Span(), Mu: l.Mu()}

	// closeTime recomputes a bin's close time from its items.
	closeTime := func(rb *refBin) float64 {
		last := 0.0
		for _, k := range rb.items {
			if d := l.Items[k].Departure; d > last {
				last = d
			}
		}
		return last
	}

	// syncLoads rebuilds every open bin's policy-facing active set from the
	// ground-truth intervals for time t and re-derives the load from scratch
	// through the exact accumulator. The accumulator's rounding is a pure
	// function of the active multiset, so this from-scratch rebuild is
	// bit-identical to the engine's incrementally-maintained load — the
	// reference stays independent in bookkeeping while sharing only the
	// summation arithmetic.
	syncLoads := func(t float64) {
		for _, rb := range bins {
			if rb.closed {
				continue
			}
			var active []int32
			for _, k := range rb.items {
				if l.Items[k].ActiveAt(t) {
					active = append(active, k)
				}
			}
			rb.bin.refill(l, active)
		}
	}

	processCloses := func(upTo float64) {
		// Close bins whose last departure is <= upTo, in (closeTime, binID)
		// order.
		type closing struct {
			rb *refBin
			t  float64
		}
		var cs []closing
		for _, rb := range bins {
			if rb.closed {
				continue
			}
			if ct := closeTime(rb); ct <= upTo {
				cs = append(cs, closing{rb: rb, t: ct})
			}
		}
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].t != cs[j].t {
				return cs[i].t < cs[j].t
			}
			return cs[i].rb.bin.ID < cs[j].rb.bin.ID
		})
		for _, c := range cs {
			c.rb.closed = true
			c.rb.closedAt = c.t
			res.Bins = append(res.Bins, BinUsage{
				BinID: c.rb.bin.ID, OpenedAt: c.rb.bin.OpenedAt, ClosedAt: c.t, Packed: len(c.rb.items),
			})
			res.Cost += c.t - c.rb.bin.OpenedAt
			p.OnClose(c.rb.bin)
		}
	}

	for _, it := range arrivals {
		processCloses(it.Arrival)
		syncLoads(it.Arrival)

		var open []*Bin
		for _, rb := range bins {
			if !rb.closed {
				open = append(open, rb.bin)
			}
		}

		req := Request{ID: it.ID, SeqNo: it.SeqNo, Arrival: it.Arrival, Size: it.Size}
		chosen := p.Select(req, open)
		opened := false
		var target *refBin
		if chosen == nil {
			opened = true
			nb := newBin(len(bins), l.Dim, it.Arrival)
			target = &refBin{bin: nb}
			bins = append(bins, target)
		} else {
			for _, rb := range bins {
				if !rb.closed && rb.bin.ID == chosen.ID {
					target = rb
					break
				}
			}
			if target == nil {
				return nil, fmt.Errorf("core: reference: policy %s returned unknown bin %d", p.Name(), chosen.ID)
			}
			if !target.bin.Fits(it.Size) {
				return nil, fmt.Errorf("core: reference: policy %s chose unfit bin %d", p.Name(), chosen.ID)
			}
		}
		k := indexOf[it.ID]
		target.items = append(target.items, k)
		target.bin.packed++
		target.bin.refill(l, append(target.bin.items, k))
		p.OnPack(req, target.bin, opened)

		res.Placements = append(res.Placements, Placement{ItemID: it.ID, BinID: target.bin.ID, Opened: opened, Time: it.Arrival})
		openCount := 0
		for _, rb := range bins {
			if !rb.closed {
				openCount++
			}
		}
		if openCount > res.MaxConcurrentBins {
			res.MaxConcurrentBins = openCount
		}
	}
	processCloses(l.Hull().Hi)

	// The model is fault-free: every item departs normally.
	res.Outcomes = make(map[int]Outcome, l.Len())
	for _, it := range l.Items {
		res.Outcomes[it.ID] = OutcomeServed
	}
	res.BinsOpened = len(bins)
	sortRecords(res)
	return res, nil
}

// sortRecords orders a reference run's records as Result documents them, by
// comparison sorts of its own: Finish places each bin record at its ID
// instead, and an oracle that shared that placement would not check it.
func sortRecords(r *Result) {
	slices.SortFunc(r.Bins, func(a, b BinUsage) int { return cmp.Compare(a.BinID, b.BinID) })
	slices.SortFunc(r.Placements, comparePlacements)
}
